"""Traced replay of one oddgraceful CLI invocation, in a fresh interpreter.

    python perfbench/replay.py PLAN.json RESULT.json

PLAN.json holds one invocation's replay plan (see `workloads.Invocation`)
plus its `id` and the `out` file for the report. The replay makes the same
public calls as the CLI handler, in the same order, and records a span
around each: name, start, end, parent span and invocation id. Two calls are
added: `Graph(n, edges)` after `parse_edge_list` (times edge validation on
its own) and `parity_precheck` before a search. RESULT.json receives the
spans, the exit code the CLI would return and any exception raised.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans kept in memory and written out once the invocation ends."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "invocation": self.invocation,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def replay_label(plan: dict, t: Tracer) -> int:
    from oddgraceful.construct import BoundPolicy, label_algorithmic, label_closed_form
    from oddgraceful.graph import FamilySpec, make_union
    from oddgraceful.io_formats import build_labeling_document, emit_report
    from oddgraceful.labeling import verify_odd_graceful

    spec = FamilySpec(plan["cycle"], plan["path"])
    construct = label_closed_form if plan["method"] == "closed" else label_algorithmic
    with t.span(f"construct.{construct.__name__}"):
        labeling = construct(spec, BoundPolicy.ENFORCE)
    with t.span("graph.make_union"):
        g = make_union(spec)
    with t.span("labeling.verify_odd_graceful") as attrs:
        report = verify_odd_graceful(g, labeling)
        attrs["ok"] = report.ok
    with t.span("io_formats.build_labeling_document"):
        doc = build_labeling_document(g, labeling, report.ok, family=(plan["cycle"], plan["path"]))
    text = _emit(t, doc)
    _write(t, plan["out"], text)
    return 0 if report.ok else 1


def replay_verify(plan: dict, t: Tracer) -> int:
    from oddgraceful.graph import Graph
    from oddgraceful.io_formats import emit_report, parse_edge_list, parse_labeling_document
    from oddgraceful.labeling import Labeling, verify_odd_graceful

    with t.span("cli.read"):
        graph_text = Path(plan["graph"]).read_text()
        labeling_text = Path(plan["labeling"]).read_text()
    with t.span("io_formats.parse_edge_list"):
        g = parse_edge_list(graph_text)
    with t.span("graph.validate"):
        Graph(g.vertex_count, g.edges)
    with t.span("io_formats.parse_labeling_document"):
        doc = parse_labeling_document(labeling_text)
    labeling = Labeling(doc.labels)
    with t.span("labeling.verify_odd_graceful") as attrs:
        report = verify_odd_graceful(g, labeling)
        attrs["ok"] = report.ok
    text = _emit(t, report, source_text=graph_text + labeling_text)
    _write(t, plan["out"], text)
    return 0 if report.ok else 1


def replay_search(plan: dict, t: Tracer) -> int:
    from oddgraceful.io_formats import parse_edge_list
    from oddgraceful.search import (
        SearchConfig,
        SearchVerdict,
        parity_precheck,
        search_odd_graceful,
    )

    with t.span("cli.read"):
        graph_text = Path(plan["graph"]).read_text()
    with t.span("io_formats.parse_edge_list"):
        g = parse_edge_list(graph_text)
    with t.span("search.parity_precheck"):
        parity_precheck(g)
    cfg = SearchConfig(node_budget=plan["budget"], find_all=plan["all"])
    with t.span("search.search_odd_graceful") as attrs:
        outcome = search_odd_graceful(g, cfg)
        attrs["nodes"] = outcome.nodes_explored
        attrs["solutions"] = outcome.solutions_found
    text = _emit(t, outcome, source_text=graph_text)
    _write(t, plan["out"], text)
    return {
        SearchVerdict.FOUND: 0,
        SearchVerdict.EXHAUSTED_NOT_FOUND: 2,
        SearchVerdict.BUDGET_EXCEEDED: 3,
    }[outcome.verdict]


def _emit(t: Tracer, payload, source_text: str | None = None) -> str:
    from oddgraceful.io_formats import emit_report

    with t.span("io_formats.emit_report") as attrs:
        text = emit_report(payload, source_text=source_text)
        attrs["bytes"] = len(text.encode())
    return text


def _write(t: Tracer, path: str, text: str) -> None:
    with t.span("cli.write"):
        Path(path).write_text(text)


REPLAYS = {"label": replay_label, "verify": replay_verify, "search": replay_search}


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    t = Tracer(plan["id"])
    result = {"invocation": plan["id"], "exit_code": None, "error": None}
    try:
        with t.span("cli.invocation"):
            with t.span("cli.import"):
                import oddgraceful.cli  # noqa: F401  (imports every layer, as the CLI does)
            result["exit_code"] = REPLAYS[plan["kind"]](plan, t)
    except Exception as exc:  # recorded and judged by the benchmark, like a CLI crash
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["spans"] = t.spans
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
