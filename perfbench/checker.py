"""Independent checks of the reports the oddgraceful CLI writes.

Nothing here imports oddgraceful. Labels, weights and witnesses are checked
against edge lists the benchmark builds itself, so a defect in the package's
verifier cannot hide a wrong answer. Each check returns a list of problems;
an empty list means the output is accepted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# Exit code and report verdict of each search outcome, from the CLI contract.
SEARCH_VERDICTS = {0: "found", 2: "exhausted-not-found", 3: "budget-exceeded"}


@dataclass(frozen=True)
class SearchExpectation:
    """What a search of one corpus instance must report."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    exit_codes: frozenset[int]
    solutions: int | None = None  # exact solution count, when pinned
    budget: int | None = None
    odd_cycle: bool = False  # the instance is rejected with an odd-cycle witness


def labeling_problems(vertex_count: int, edges, labels) -> list[str]:
    """Problems that keep `labels` from being odd graceful on `edges`: labels
    distinct integers in {0..2q-1}, weights exactly {1, 3, ..., 2q-1}."""
    q = len(edges)
    if not isinstance(labels, list) or len(labels) != vertex_count:
        return [f"expected {vertex_count} labels"]
    if any(type(x) is not int for x in labels):
        return ["labels are not all integers"]
    problems = []
    if len(set(labels)) != len(labels):
        problems.append("labels are not distinct")
    if labels and (min(labels) < 0 or max(labels) >= 2 * q):
        problems.append(f"a label lies outside 0..{2 * q - 1}")
    weights = sorted(abs(labels[a] - labels[b]) for a, b in edges)
    if weights != list(range(1, 2 * q, 2)):
        problems.append("edge weights are not exactly the odd numbers below 2q")
    return problems


def check_label(exit_code: int, text: str, cycle: int, path: int, edges) -> list[str]:
    """`label --out FILE` for union(cycle, path), whose edges the caller built."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    doc, problems = _load(text, "labeling")
    if doc is None:
        return problems
    if doc.get("ok") is not True:
        problems.append("report says ok is not true")
    if doc.get("family") != {"cycle_order": cycle, "path_order": path}:
        problems.append("family does not match the requested cycle and path")
    if doc.get("edge_count") != len(edges):
        problems.append(f"edge_count is not {len(edges)}")
    labels = doc.get("labels")
    label_problems = labeling_problems(cycle + path, edges, labels)
    problems += label_problems
    if not label_problems:
        weights = [abs(labels[a] - labels[b]) for a, b in edges]
        if doc.get("weights") != weights:
            problems.append("reported weights differ from the weights of the labels")
    return problems


def check_verify(exit_code: int, text: str, expect_ok: bool) -> list[str]:
    """`verify GRAPH LABELING`, whose verdict is known by construction."""
    expected_exit = 0 if expect_ok else 1
    if exit_code != expected_exit:
        return [f"exit code {exit_code}, expected {expected_exit}"]
    doc, problems = _load(text, "verify-report")
    if doc is None:
        return problems
    if doc.get("ok") is not expect_ok:
        problems.append(f"verdict ok={doc.get('ok')!r}, expected {expect_ok}")
    violations = doc.get("violations")
    if not isinstance(violations, list) or bool(violations) == expect_ok:
        problems.append("violation list does not match the verdict")
    return problems


def check_search(exit_code: int, text: str, expect: SearchExpectation) -> list[str]:
    """`search GRAPH [...]` on one corpus instance."""
    if exit_code not in expect.exit_codes:
        return [f"exit code {exit_code}, expected one of {sorted(expect.exit_codes)}"]
    doc, problems = _load(text, "search-outcome")
    if doc is None:
        return problems
    if doc.get("verdict") != SEARCH_VERDICTS[exit_code]:
        problems.append(f"verdict {doc.get('verdict')!r} does not match exit code {exit_code}")
    labels = doc.get("labels")
    if exit_code == 0 and labels is None:
        problems.append("found, but no labeling reported")
    if labels is not None:
        problems += labeling_problems(expect.vertex_count, expect.edges, labels)
    if expect.solutions is not None and doc.get("solutions_found") != expect.solutions:
        problems.append(
            f"solutions_found {doc.get('solutions_found')!r}, expected {expect.solutions}"
        )
    if expect.budget is not None and not (
        isinstance(doc.get("nodes_explored"), int) and doc["nodes_explored"] <= expect.budget
    ):
        problems.append(f"nodes_explored exceeds the budget {expect.budget}")
    if expect.odd_cycle:
        problems += _odd_cycle_problems(doc.get("odd_cycle_witness"), expect.edges)
    return problems


def _odd_cycle_problems(cycle, edges) -> list[str]:
    if not isinstance(cycle, list) or len(cycle) < 3 or len(cycle) % 2 == 0:
        return ["odd_cycle_witness is not a cycle of odd length"]
    if len(set(cycle)) != len(cycle):
        return ["odd_cycle_witness repeats a vertex"]
    edge_set = {frozenset(e) for e in edges}
    closed = zip(cycle, cycle[1:] + cycle[:1])
    if any(frozenset(pair) not in edge_set for pair in closed):
        return ["odd_cycle_witness uses a pair that is not an edge of the graph"]
    return []


def _load(text: str, kind: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"report is not JSON: {exc.msg}"]
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        return None, [f"report kind is not {kind!r}"]
    return doc, []
