"""The benchmark's workloads: seeded inputs and the CLI invocations that use them.

Inputs are generated from the seed before any timing starts. The package is
given only the generated files and flags; the expected answers come from the
construction of each input, and `checker` judges the outputs against them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from checker import SearchExpectation, check_label, check_search, check_verify, labeling_problems

WORKLOADS = ("label-200k", "verify-200k", "search-oracle")
EDGES = 200_000  # q of every label-200k and verify-200k graph
TINY_EDGES = 1_000  # q used by the self-test
VERIFY_CYCLE = 40


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its arguments, where its report lands, how to judge it,
    and the public-call plan that `replay.py` follows for the traced run."""

    id: str
    argv: tuple[str, ...]
    out_file: Path | None  # the --out target; None means the report goes to stdout
    check: Callable[[int, str], list[str]]  # (exit code, report text) -> problems
    replay: dict


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]  # one pass, timed
    probes: tuple[Invocation, ...] = ()  # run once per run, untimed: known defects


@dataclass(frozen=True)
class SearchCase:
    name: str
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    budget: int | None = None
    find_all: bool = False
    exit_codes: frozenset[int] = frozenset({0})
    solutions: int | None = None
    odd_cycle: bool = False
    fast: bool = False  # cheap enough for the self-test
    known_defect: bool = False  # fails at the seed commit; kept out of the timed pass


def path_edges(n: int, first: int = 0) -> tuple[tuple[int, int], ...]:
    return tuple((first + i, first + i + 1) for i in range(n - 1))


def cycle_edges(m: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, (i + 1) % m) for i in range(m))


def union_edges(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """Cycle on ids 0..m-1 in ring order, then the path on m..m+n-1: the
    layout the README documents for `label` output."""
    return cycle_edges(m) + path_edges(n, m)


def _case(name, vertex_count, edges, **kw) -> SearchCase:
    return SearchCase(name, vertex_count, tuple(edges), **kw)


SEARCH_CORPUS = (
    _case("p12-first", 12, path_edges(12)),
    _case("u64-all", 10, union_edges(6, 4), find_all=True, solutions=128_208),
    _case("u43-all", 7, union_edges(4, 3), find_all=True, solutions=960, fast=True),
    _case("u4039-budget", 79, union_edges(40, 39), budget=50_000,
          exit_codes=frozenset({3}), fast=True),
    _case("c9-odd", 9, cycle_edges(9), exit_codes=frozenset({2}), solutions=0,
          odd_cycle=True, fast=True),
    # Recurses once per vertex, so P1500 overflows Python's stack and exits 1
    # with a traceback. Either a labeling (exit 0) or a budget cut (exit 3)
    # is a correct answer.
    _case("p1500-deep", 1500, path_edges(1500), budget=5_000,
          exit_codes=frozenset({0, 3}), fast=True, known_defect=True),
)


def build(name: str, seed: int, workdir: Path, run_cli, tiny: bool = False) -> Workload:
    """Generate the inputs of workload `name` under `workdir`.

    `run_cli(argv, stdout_path)` runs the CLI and returns its exit code; the
    verify workload uses it, untimed, to obtain the labeling it permutes.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    q = TINY_EDGES if tiny else EDGES
    if name == "label-200k":
        return _label(workdir, q)
    if name == "verify-200k":
        return _verify(workdir, q, seed, run_cli)
    if name == "search-oracle":
        corpus = [c for c in SEARCH_CORPUS if c.fast or not tiny]
        return _search(workdir, seed, corpus)
    raise ValueError(f"unknown workload {name!r}")


def _label(workdir: Path, q: int) -> Workload:
    """Both residues of m mod 4 (40 and 42), each with both constructors."""
    invocations = []
    for m in (40, 42):
        n = q + 1 - m
        check = partial(check_label, cycle=m, path=n, edges=union_edges(m, n))
        for method in ("closed", "algo"):
            out = workdir / f"c{m}-{method}.json"
            argv = ("label", "--cycle", str(m), "--path", str(n), "--method", method,
                    "--out", str(out))
            plan = {"kind": "label", "cycle": m, "path": n, "method": method}
            invocations.append(Invocation(f"c{m}-{method}", argv, out, check, plan))
    return Workload("label-200k", tuple(invocations))


def _verify(workdir: Path, q: int, seed: int, run_cli) -> Workload:
    """Two valid and two corrupted labelings of union(40, q-39), each file
    with its own vertex permutation, edge order and edge orientation."""
    m = VERIFY_CYCLE
    n = q + 1 - m
    edges = union_edges(m, n)
    source = workdir / "source-labeling.json"
    argv = ["label", "--cycle", str(m), "--path", str(n), "--out", str(source)]
    exit_code = run_cli(argv, workdir / "source-labeling.stdout")
    text = source.read_text() if source.exists() else ""
    problems = check_label(exit_code, text, m, n, edges)
    if problems:
        raise RuntimeError(f"cannot generate verify inputs, label output rejected: {problems}")
    base = json.loads(text)
    source.unlink()

    rng = random.Random(seed)
    vertex_count = m + n
    invocations = []
    files = (("valid-1", 0), ("valid-2", 0), ("corrupt-2swap", 2), ("corrupt-5swap", 5))
    for file_id, swaps in files:
        perm = list(range(vertex_count))
        rng.shuffle(perm)
        shuffled = [
            (perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a]) for a, b in edges
        ]
        rng.shuffle(shuffled)
        labels = [0] * vertex_count
        for v, x in enumerate(_swap_labels(base["labels"], m, swaps, rng)):
            labels[perm[v]] = x
        if bool(swaps) != bool(labeling_problems(vertex_count, shuffled, labels)):
            raise RuntimeError(f"{file_id}: labeling validity differs from its construction")
        doc = dict(base, labels=labels, ok=not swaps,
                   weights=[abs(labels[a] - labels[b]) for a, b in shuffled])
        graph_file = workdir / f"{file_id}.graph"
        labeling_file = workdir / f"{file_id}.json"
        graph_file.write_text(_edge_list(vertex_count, shuffled))
        labeling_file.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        plan = {"kind": "verify", "graph": str(graph_file), "labeling": str(labeling_file)}
        invocations.append(Invocation(
            file_id, ("verify", str(graph_file), str(labeling_file)), None,
            partial(check_verify, expect_ok=not swaps), plan,
        ))
    return Workload("verify-200k", tuple(invocations))


def _swap_labels(labels: list[int], m: int, swaps: int, rng: random.Random) -> list[int]:
    """Swap the labels of `swaps` pairs of interior path vertices (ids m+1 ..
    len-2 in the unpermuted layout) whose labels differ in parity and which
    lie more than two steps from every other chosen vertex. Each swap then
    turns exactly the four edges at its two vertices even, so the report of
    the corrupted file has the same number of violations for every seed."""
    labels = list(labels)
    chosen: list[int] = []
    while len(chosen) < 2 * swaps:
        u, v = rng.sample(range(m + 1, len(labels) - 1), 2)
        far = abs(u - v) > 2 and all(abs(w - c) > 2 for w in (u, v) for c in chosen)
        if far and (labels[u] - labels[v]) % 2:
            chosen += [u, v]
            labels[u], labels[v] = labels[v], labels[u]
    return labels


def _search(workdir: Path, seed: int, corpus) -> Workload:
    """One search per corpus instance. The seed shuffles edge order and
    orientation, which changes neither node nor solution counts."""
    rng = random.Random(seed)
    timed, probes = [], []
    for case in corpus:
        lines = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in case.edges]
        rng.shuffle(lines)
        graph_file = workdir / f"{case.name}.graph"
        graph_file.write_text(_edge_list(case.vertex_count, lines))
        argv = ["search", str(graph_file)]
        if case.budget is not None:
            argv += ["--budget", str(case.budget)]
        if case.find_all:
            argv.append("--all")
        expect = SearchExpectation(case.vertex_count, case.edges, case.exit_codes,
                                   case.solutions, case.budget, case.odd_cycle)
        plan = {"kind": "search", "graph": str(graph_file), "budget": case.budget,
                "all": case.find_all}
        invocation = Invocation(case.name, tuple(argv), None,
                                partial(check_search, expect=expect), plan)
        (probes if case.known_defect else timed).append(invocation)
    return Workload("search-oracle", tuple(timed), tuple(probes))


def _edge_list(vertex_count: int, edges) -> str:
    return f"graph {vertex_count}\n" + "".join(f"{a} {b}\n" for a, b in edges)
