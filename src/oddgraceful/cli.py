"""Command-line front end.

Subcommands: label (construct a family labeling), verify (check a labeling
file against a graph file), search (exhaustive oracle), dot (render a graph
file). Exit codes are part of the contract: label and verify exit 0 exactly
when the labeling is odd graceful, search exits 0/2/3 for found / exhausted /
budget-exceeded, and any bad command line, input or parameter exits 64.
--format, on label and search only, picks the output text and never the exit
code. Below min_path_order, label takes label_short_path whatever --method
says. verify, like dot --labeling, reads and parses the graph file before it
reads the labeling file, so a bad graph is the error named when both inputs
are bad, and each text is held only while it is hashed and parsed. verify's
verdict proves its graph free of loops and repeated edges; only where it
cannot does verify key every edge. Timing lives outside the package, in the
benchmark under perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from array import array
from pathlib import Path

from ._version import __version__
from .construct import (
    label_algorithmic,
    label_closed_form,
    label_short_path,
    min_path_order,
)
from .errors import OddGracefulError, ParseError, ValidationError
from .graph import FamilySpec, Graph, make_union
from .io_formats import (
    LabelingDocument,
    _dot_lines,
    _read_edge_list,
    _report_parts,
    parse_edge_list,
    parse_labeling_document,
)
from .labeling import (DuplicateEdgeWeight, EdgeWeightEven, Labeling, _family_weights, _verdict,
                       verify_odd_graceful)
from .search import SearchConfig, SearchVerdict, search_odd_graceful

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_FOUND = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OddGracefulError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_USAGE on a rejected command line; argparse's own 2 is search's
    exhausted verdict. add_subparsers gives subcommand parsers this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oddgraceful",
        description="Construct, verify, and search odd-graceful labelings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", help="construct a labeling for one cycle plus one path")
    p.add_argument("--cycle", type=int, required=True, help="cycle order (even, >= 4)")
    p.add_argument("--path", type=int, required=True, help="path order (>= 2)")
    p.add_argument("--method", choices=["closed", "algo"], default="closed")
    p.add_argument("--format", choices=["report", "dot"], default=None)
    p.set_defaults(handler=_cmd_label)

    p = sub.add_parser("verify", help="verify a labeling file against a graph file")
    p.add_argument("graph_file")
    p.add_argument("labeling_file")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("search", help="exhaustive search for an odd-graceful labeling")
    p.add_argument("graph_file")
    p.add_argument("--budget", type=int, default=None, help="backtrack-node cap")
    p.add_argument("--all", action="store_true", help="count every solution")
    p.add_argument("--format", choices=["report", "dot"], default=None)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("dot", help="render a graph file (optionally labeled) as DOT")
    p.add_argument("graph_file")
    p.add_argument("--labeling", default=None, help="labeling file to draw on the graph")
    p.set_defaults(handler=_cmd_dot)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at offset {exc.start}") from None


def _read_hashed(path: str, digest) -> str:
    """_read, feeding the text's UTF-8 bytes to digest for input_digest."""
    text = _read(path)
    digest.update(text.encode())
    return text


def _write(args, parts) -> None:
    """Write the text parts in order, never joined, to --out or stdout."""
    if args.out is not None:
        with open(args.out, "w") as f:
            f.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _cmd_label(args) -> int:
    spec = FamilySpec(args.cycle, args.path)
    construct = label_closed_form if args.method == "closed" else label_algorithmic
    if args.path < min_path_order(args.cycle):
        construct = label_short_path
    labeling = construct(spec)
    # The weights and the verdict come from the labels alone; only DOT, which
    # draws the edges, builds the graph.
    weights = _family_weights(spec, labeling)
    ok = _verdict(labeling.labels, weights)[0]
    if args.format == "dot":
        # The DOT lines compute each edge's weight as they lay it out; these
        # weights are freed before the graph is built and validated.
        del weights
        _write(args, _dot_lines(make_union(spec), labeling))
    else:
        # The labels are packed, 8 bytes each like the weights, and their
        # tuple is freed before the report is laid out. The DOT branch keeps
        # the tuple: its lines index the labels twice per edge, which a
        # tuple does faster than an array.
        doc = LabelingDocument((args.cycle, args.path), spec.edge_count,
                               array("q", labeling.labels), weights, ok)
        del labeling, weights
        parts = _report_parts(doc)
        del doc  # the arrays are freed before the write encodes the parts
        _write(args, parts)
    return EXIT_OK if ok else EXIT_INVALID


def _cmd_verify(args) -> int:
    # Each text is hashed as it is read and freed once it is parsed, so the
    # two are never held at once. Where the verdict cannot prove the graph
    # simple, check_simple runs before any other error is named or written.
    digest = hashlib.sha256()
    columns, vertex_count = _read_edge_list(_read_hashed(args.graph_file, digest))
    g = columns.unproven_graph(vertex_count)
    try:
        labeling = _labeling_for(g, _read_hashed(args.labeling_file, digest))
        report = verify_odd_graceful(g, labeling)
    except (OddGracefulError, OSError):
        columns.check_simple(g.vertex_count)
        raise
    if _cites_a_graph_fault(report):
        columns.check_simple(g.vertex_count)  # raises the first fault
    # Free the graph and labels before the report is laid out.
    del g, columns, labeling
    _write(args, _report_parts(report, digest))
    return EXIT_OK if report.ok else EXIT_INVALID


def _cites_a_graph_fault(report) -> bool:
    """Whether a report cites an even-weight edge (a, a), or an end pair twice,
    in either orientation, among one repeated weight's edges (a loop there is
    its own reverse): exactly when a graph in range has a loop or a repeat."""
    for v in report.violations:
        if type(v) is EdgeWeightEven and v.edge[0] == v.edge[1]:
            return True
        if type(v) is DuplicateEdgeWeight:
            edges = set(v.edges)
            if len(edges) < len(v.edges) or any((b, a) in edges for a, b in edges):
                return True
    return False


def _cmd_search(args) -> int:
    digest = hashlib.sha256()
    g = parse_edge_list(_read_hashed(args.graph_file, digest))
    cfg = SearchConfig(node_budget=args.budget, find_all=args.all)
    outcome = search_odd_graceful(g, cfg)
    if args.format == "dot":
        # With no labeling found this draws the bare graph; the exit code
        # stays the verdict.
        _write(args, _dot_lines(g, outcome.labeling))
    else:
        _write(args, _report_parts(outcome, digest))
    return {
        SearchVerdict.FOUND: EXIT_OK,
        SearchVerdict.EXHAUSTED_NOT_FOUND: EXIT_NOT_FOUND,
        SearchVerdict.BUDGET_EXCEEDED: EXIT_BUDGET,
    }[outcome.verdict]


def _cmd_dot(args) -> int:
    g = parse_edge_list(_read(args.graph_file))
    labeling = None if args.labeling is None else _labeling_for(g, _read(args.labeling))
    _write(args, _dot_lines(g, labeling))
    return EXIT_OK


def _labeling_for(g: Graph, labeling_text: str) -> Labeling:
    """Parse a labeling document, which checks itself, and check that its edge
    count is g's. The verifier recomputes its weights and ok flag."""
    doc = parse_labeling_document(labeling_text)
    if doc.edge_count != g.edge_count:
        raise ValidationError(
            f"labeling document has edge_count {doc.edge_count}, graph has {g.edge_count} edges"
        )
    return Labeling(doc.labels)
