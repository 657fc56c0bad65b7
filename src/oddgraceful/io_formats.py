"""Text formats: edge lists in, JSON reports and DOT out.

Edge-list format (read and write)
    optional first line    graph <vertex_count>
    body lines             <a> <b>        one edge per line, 0-based ids
    '#' starts a comment running to end of line; blank lines are ignored.
    Without the header, vertex_count defaults to 1 + the largest id used.
    Lines end where str.splitlines ends them. The text is read a slice at a
    time, each slice ending just after a '\\n': the first line alone, then
    about 4 KiB each (_slices). A slice whose every line is
    '<digits> <digits>\\n' is plain: one str.translate compare proves that,
    and one json.loads of the slice, its spaces and newlines made commas,
    turns all its ids into ints in C (_plain_endpoints). Any other slice,
    or one the decoder refuses (leading zeros, more digits than CPython
    converts), goes to the per-line loop, which defines the format and names
    the faulty line. Either way the slice's ints go to the graph's columns in
    one graph._EdgeColumns.add, which also keeps their range. On 2 cores
    and CPython 3.11.7 a verify-200k graph file (q = 200 000) parses in
    0.14 s, of which 0.07 s is keying every edge for loops and duplicates,
    which cli verify skips (_read_edge_list); its \\r\\n copy, read line by
    line throughout, takes 0.23 s.
    A vertex count above graph.MAX_VERTICES (2**22) raises ValidationError.
    An id past the 64 bits of the array('q') columns fails like any id out
    of range, or, without the header, as a vertex count past the bound.

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
    so equal inputs give byte-identical reports. An array of ints, such as
    the labels and the weights, is formatted straight from its ints, a chunk
    at a time, into compact text (_IntTexts), which also feeds the digest;
    every other value goes through json.dumps (_indented). cli label hands
    over its labels and weights already formatted, each chunk as it was
    drawn from the constructor's stream, and every other caller hands over
    int sequences, which _int_chunks formats. _report_parts runs every check
    and all hashing, keeping each int chunk's compact text, and returns an
    iterator of text parts that lays each chunk out only as it is reached;
    emit_report joins them, and the CLI writes them unjoined, so no copy of
    the whole text is made on the way to a file or stdout.

DOT (write): undirected graph; node text is the vertex label when a labeling
is supplied (bare ids otherwise) and edge text is the induced weight. The CLI
writes it line by line (_dot_lines); emit_dot joins the lines.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from operator import sub

from ._version import __version__
from .errors import ParseError, ValidationError
from .graph import Graph, _EdgeColumns, _decimal
from .labeling import (
    VIOLATION_KINDS,
    Labeling,
    VerifyReport,
    _total_labels,
    induced_weights,
)
from .search import SearchOutcome

REPORT_VERSION = 2


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; malformed lines raise ParseError with the
    line number, structural problems (self-loops, duplicates, ids beyond the
    declared vertex count) raise ValidationError. The columns _read_edge_list
    reads are range-checked, then keyed for loops and repeats, by graph()."""
    edges, vertex_count = _read_edge_list(text)
    return edges.graph(vertex_count)


def _read_edge_list(text: str) -> tuple[_EdgeColumns, int]:
    """The edge list's unvalidated columns and vertex count. Each slice's ints
    go to the columns in one add; no pair is built per edge."""
    vertex_count: int | None = None
    edges = _EdgeColumns()
    line_no = 0
    for piece in _slices(text):
        ends = _plain_endpoints(piece)
        if ends is not None:
            line_no += len(ends) // 2
        else:
            ends = []
            for line_no, raw in enumerate(piece.splitlines(), start=line_no + 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if parts[0] == "graph":
                    if vertex_count is not None or ends or edges.tails:
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
                    ends += int(parts[0]), int(parts[1])
                except ValueError:
                    raise ParseError(f"endpoints must be integers, got {line!r}", line_no) from None
        edges.add(ends[0::2], ends[1::2])
    if vertex_count is None:
        vertex_count = 1 + edges.high
    return edges, vertex_count


def _slices(text: str, size: int = 1 << 12):
    """text cut into slices that each end just after a newline, but for a
    last slice without one: the first line alone, so a header never costs a
    whole slice its plain conversion, then slices of about size characters.
    The one two-character line break, \\r\\n, ends in a newline, so no cut
    falls inside a break, and the slices' lines are text.splitlines().
    Slices of 64 KiB convert no faster, and verify's peak RSS on the
    verify-200k benchmark's files read up to 2.3 MB higher with them."""
    start, end = 0, text.find("\n") + 1 or len(text)
    while start < len(text):
        yield text[start:end]
        start = end
        end = text.find("\n", start + size) + 1 or len(text)


_DROP_DIGITS = str.maketrans("", "", "0123456789")


def _plain_endpoints(piece: str) -> list[int] | None:
    """The endpoints of a slice whose every line is '<digits> <digits>\\n', as
    the JSON decoder's list of ints in text order; None for any other slice,
    which the per-line loop reads. The translate compare proves the shape of
    each line, and the C JSON decoder converts the whole slice. A slice goes
    to the loop too if the decoder refuses it (leading zeros, more digits
    than CPython converts)."""
    if piece[-1:] != "\n" or piece.translate(_DROP_DIGITS) != " \n" * piece.count("\n"):
        return None
    try:
        return json.loads("[" + piece[:-1].replace(" ", ",").replace("\n", ",") + "]")
    except ValueError:
        return None


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
    labels and weights are int sequences: the parser and
    build_labeling_document give tuples. cli label gives each already
    formatted, as an _IntTexts that it filled a chunk at a time from the
    constructor's stream, so no sequence of all its ints is ever held; its
    len() is the int count. Counts that contradict edge_count raise
    ValidationError."""

    family: tuple[int, int] | None
    edge_count: int
    labels: Sequence[int]
    weights: Sequence[int]
    ok: bool

    def __post_init__(self):
        q, family = self.edge_count, self.family
        if len(self.weights) != q:
            raise ValidationError(f"labeling document lists {len(self.weights)} weights for edge_count {q}")
        if family is not None and sum(family) - 1 != q:
            raise ValidationError(
                f"labeling document family {family} has {_decimal(sum(family) - 1)} edges, edge_count is {q}"
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
    """Serialize a report; byte-stable for equal inputs within a release.
    The text is _report_parts' parts joined."""
    digest = None
    if source_text is not None:
        digest = hashlib.sha256(source_text.encode())
    return "".join(_report_parts(payload, digest))


def _report_parts(payload, digest=None):
    """The report text as an iterator of parts, in order; emit_report joins
    them, and the CLI writes them unjoined.

    digest, when given, is a hashlib.sha256 object the caller has fed with
    the UTF-8 bytes of each source text in turn, as it read them;
    input_digest is its hex digest, that of the texts' concatenation.
    Without it input_digest is that of the compact body,
    json.dumps(body, sort_keys=True, separators=(",", ":")), hashed a
    top-level value, or an int array's chunk, at a time, never held whole.
    Every check and all hashing run before this returns, so an int past
    str()'s digit limit raises ValidationError before the caller opens its
    output. An int array, or an _IntTexts already made from one, is kept
    as its chunks' compact texts (_int_chunks), each laid out only as the
    iterator reaches it; every other value's indented text is made now by
    json.dumps (_indented), and its compact text only to be hashed.
    """
    body = _payload_body(payload)
    hash_body = digest is None
    if hash_body:
        digest = hashlib.sha256()
    texts = {}
    separator = "{"
    for key in sorted(body):
        value = body[key]
        if hash_body:
            digest.update(f"{separator}{json.dumps(key)}:".encode())
            separator = ","
        try:
            if _holds_only_ints(value):
                value = _int_chunks(value)
            if type(value) is _IntTexts:
                if hash_body:
                    for i, text in enumerate(value.texts):
                        digest.update(b"," if i else b"[")
                        digest.update(text.encode())
                    digest.update(b"]" if value.texts else b"[]")
                texts[key] = value.texts
            else:
                if hash_body:
                    digest.update(json.dumps(value, sort_keys=True, separators=(",", ":")).encode())
                texts[key] = _indented(value)
        except ValueError:  # an int past str()'s digit limit, such as a failing verify's weight
            raise ValidationError(
                f"cannot write the report: an integer in its {key} has more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
    if hash_body:
        digest.update(b"}")
    # The envelope values are scalars, whose indented text is their JSON text.
    texts["report_version"] = json.dumps(REPORT_VERSION)
    texts["tool_version"] = json.dumps(__version__)
    texts["input_digest"] = json.dumps(f"sha256:{digest.hexdigest()}")
    return _laid_out(texts)


def _laid_out(texts: dict):
    """The parts of the object whose values' indented texts are texts[key]:
    a str, or an int array's list of compact chunk texts, each laid out as
    it is reached with a line break and indent after each comma, since no
    int's text holds a comma."""
    separator = "{\n  "
    for key in sorted(texts):
        yield separator
        yield json.dumps(key)
        yield ": "
        text = texts[key]
        if type(text) is str:
            yield text
        elif not text:
            yield "[]"
        else:
            yield "[\n    "
            yield text[0].replace(",", ",\n    ")
            for chunk in text[1:]:
                yield ",\n    "
                yield chunk.replace(",", ",\n    ")
            yield "\n  ]"
        separator = ",\n  "
    yield "\n}\n"


def _holds_only_ints(value) -> bool:
    """Whether value is an array('q'), or a tuple or list whose items are all
    exactly int: type() rather than isinstance(), so bools stay true/false."""
    if type(value) is array:
        return value.typecode == "q"
    return type(value) in (tuple, list) and set(map(type, value)) <= {int}


_CHUNK = 1 << 14  # ints formatted at a time by _int_chunks and cli label


class _IntTexts:
    """An int array as the compact JSON texts of its chunks, without the
    brackets, each made by one %-format of a chunk's ints, with no JSON
    encoder and no str object per int. len() is the number of ints, so a
    LabelingDocument checks its counts as for any int sequence, and
    _report_parts writes it as it writes the array."""

    def __init__(self):
        self.texts: list[str] = []
        self.count = 0

    def add(self, ints) -> None:
        """Format the next chunk of ints, a list, tuple or array('q'); an
        empty one adds nothing."""
        if ints:
            self.texts.append(("%d," * len(ints))[:-1] % tuple(ints))
            self.count += len(ints)

    def __len__(self) -> int:
        return self.count


def _int_chunks(values) -> _IntTexts:
    """An int array formatted _CHUNK ints at a time."""
    chunks = _IntTexts()
    for start in range(0, len(values), _CHUNK):
        chunks.add(values[start:start + _CHUNK])
    return chunks


def _indented(value) -> str:
    """The indent=2 text of a value one level inside an object: its own
    indent=2 text with each line after the first indented two more spaces,
    which is exact because the encoder escapes every newline inside a
    string. The indenting encoder runs in pure Python, so the report's int
    arrays, its largest values, take _int_chunks instead.
    """
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


def emit_dot(g: Graph, labeling: Labeling | None = None) -> str:
    """Render the graph in DOT, with labels on nodes and weights on edges when
    a labeling is given."""
    return "".join(_dot_lines(g, labeling))


def _dot_lines(g: Graph, labeling: Labeling | None = None):
    """emit_dot's text as an iterator of lines, each ending in a newline. Each
    edge's weight is computed as its line is laid out, but the labeling's
    length, and that its largest weight has no more digits than str()
    writes, are checked before this returns, so a labeling that does not fit
    g raises ValidationError before the caller opens its output."""
    if labeling is None:
        nodes = (f"  {v};\n" for v in range(g.vertex_count))
        edges = (f"  {a} -- {b};\n" for a, b in zip(g._tails, g._heads))
    else:
        labels = _total_labels(g.vertex_count, labeling)
        ends = map(labels.__getitem__, g._tails), map(labels.__getitem__, g._heads)
        try:
            str(max(map(abs, map(sub, *ends)), default=0))
        except ValueError:
            raise ValidationError(
                f"cannot write the DOT: an edge weight has more than {sys.get_int_max_str_digits()} digits"
            ) from None
        nodes = (f'  {v} [label="{x}"];\n' for v, x in enumerate(labels))
        edges = (
            f'  {a} -- {b} [label="{abs(labels[a] - labels[b])}"];\n'
            for a, b in zip(g._tails, g._heads)
        )
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

