"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v`; the summary lines are printed
outside pytest's capture so they are visible either way.
"""

import json
import os
import random
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import oddgraceful

from oddgraceful import (
    DuplicateEdgeWeight,
    DuplicateVertexLabel,
    EdgeWeightEven,
    FamilySpec,
    Labeling,
    SearchConfig,
    SearchVerdict,
    VertexLabelOutOfRange,
    complement_labeling,
    label_algorithmic,
    label_closed_form,
    make_cycle,
    make_path,
    make_union,
    min_path_order,
    search_odd_graceful,
    verify_odd_graceful,
)
from oddgraceful.construct import BoundPolicy

from reference_search import reference_labelings

SRC_DIR = str(Path(oddgraceful.__file__).resolve().parents[1])

SWEEP = [
    (m, n)
    for m in range(4, 42, 2)
    for n in range(min_path_order(m), min_path_order(m) + 12)
]

KNOWN_LABELINGS = {
    (4, 3): (0, 11, 2, 7, 1, 4, 3),
    (6, 3): (0, 15, 2, 13, 4, 7, 1, 6, 5),
    (8, 7): (0, 27, 2, 25, 4, 23, 6, 15, 1, 14, 3, 10, 5, 8, 7),
    (10, 7): (0, 31, 2, 29, 4, 27, 6, 25, 8, 15, 1, 14, 3, 12, 7, 10, 9),
}


def announce(capsys, number, name, passed, detail=""):
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[acceptance] criterion {number} {name}: {'PASS' if passed else 'FAIL'}{suffix}")


def test_criterion_1_construction_soundness_sweep(capsys):
    start = time.perf_counter()
    failures = []
    for m, n in SWEEP:
        spec = FamilySpec(m, n)
        labeling = label_closed_form(spec)
        if not verify_odd_graceful(make_union(spec), labeling).ok:
            failures.append((m, n))
    elapsed = time.perf_counter() - start
    passed = len(SWEEP) == 228 and not failures and elapsed < 5.0
    announce(capsys, 1, "construction soundness sweep", passed,
             f"{len(SWEEP)} instances in {elapsed:.2f}s")
    assert len(SWEEP) == 228
    assert not failures, failures
    assert elapsed < 5.0


def test_criterion_2_method_equivalence(capsys):
    mismatches = [
        (m, n)
        for m, n in SWEEP
        if label_algorithmic(FamilySpec(m, n)) != label_closed_form(FamilySpec(m, n))
    ]
    announce(capsys, 2, "method equivalence", not mismatches,
             f"{len(SWEEP)} instances, exact equality")
    assert not mismatches, mismatches


def test_criterion_3_fixture_regression(capsys):
    wrong = {}
    for (m, n), expected in KNOWN_LABELINGS.items():
        got = label_closed_form(FamilySpec(m, n)).labels
        if got != expected:
            wrong[(m, n)] = got
    announce(capsys, 3, "fixture regression", not wrong,
             f"{len(KNOWN_LABELINGS)} pinned labelings")
    assert not wrong, wrong


def test_criterion_4_boundary_sharpness(capsys):
    cases = [(8, 6), (4, 2), (10, 6), (6, 2)]
    unexpected_pass = []
    for m, n in cases:
        spec = FamilySpec(m, n)
        labeling = label_closed_form(spec, BoundPolicy.FORCE)
        if verify_odd_graceful(make_union(spec), labeling).ok:
            unexpected_pass.append((m, n))
    spec = FamilySpec(10, 6)
    report = verify_odd_graceful(
        make_union(spec), label_closed_form(spec, BoundPolicy.FORCE)
    )
    exact = report.violations == (DuplicateVertexLabel(8, (8, 15)),)
    passed = not unexpected_pass and exact
    announce(capsys, 4, "boundary sharpness", passed,
             "forced constructions fail, (10,6) collides exactly on label 8")
    assert not unexpected_pass, unexpected_pass
    assert exact, report.violations


def test_criterion_5_oracle_nonexistence(capsys):
    search_odd_graceful(make_cycle(3))  # warm-up
    full_times, precheck_times = {}, {}
    verdict_ok = True
    for m in (3, 5, 7):
        g = make_cycle(m)
        start = time.perf_counter()
        full = reference_labelings(g)
        full_times[m] = time.perf_counter() - start
        start = time.perf_counter()
        quick = search_odd_graceful(g)
        precheck_times[m] = time.perf_counter() - start
        verdict_ok = verdict_ok and (
            full == []
            and quick.verdict is SearchVerdict.EXHAUSTED_NOT_FOUND
            and quick.odd_cycle_witness is not None
        )
    passed = (
        verdict_ok
        and all(t < 10.0 for t in full_times.values())
        and all(t < 1e-3 for t in precheck_times.values())
    )
    announce(capsys, 5, "oracle nonexistence", passed,
             "full search "
             + ", ".join(f"C{m}={full_times[m]:.3f}s" for m in full_times)
             + "; precheck "
             + ", ".join(f"C{m}={precheck_times[m]*1e6:.0f}us" for m in precheck_times))
    assert verdict_ok
    assert all(t < 10.0 for t in full_times.values()), full_times
    assert all(t < 1e-3 for t in precheck_times.values()), precheck_times


def test_criterion_6_oracle_existence(capsys):
    start = time.perf_counter()
    targets = [make_path(n) for n in range(2, 9)]
    targets += [make_cycle(m) for m in (4, 6, 8)]
    union = make_union(FamilySpec(4, 3))
    targets.append(union)
    not_found = []
    for g in targets:
        out = search_odd_graceful(g)
        if out.verdict is not SearchVerdict.FOUND or not verify_odd_graceful(g, out.labeling).ok:
            not_found.append(g)
    everything = search_odd_graceful(union, SearchConfig(find_all=True))
    elapsed = time.perf_counter() - start
    reference = reference_labelings(union)
    contains_fixture = (
        Labeling(KNOWN_LABELINGS[(4, 3)]) in reference
        and everything.solutions_found == len(reference)
    )
    even_count = everything.solutions_found % 2 == 0
    passed = not not_found and contains_fixture and even_count and elapsed < 60.0
    announce(capsys, 6, "oracle existence", passed,
             f"{len(targets)} graphs in {elapsed:.2f}s, "
             f"{everything.solutions_found} labelings of the smallest union")
    assert not not_found, not_found
    assert contains_fixture
    assert even_count, everything.solutions_found
    assert elapsed < 60.0


# Criterion 7's timing loop, run in a fresh interpreter: best construction
# time of 15 at each edge count q, on C40 plus the path that makes up the
# rest; outputs verified up to q = 1 000 000. Each round times every size
# once, so a slow spell of the host falls on both sides of a ratio instead of
# on one size's block of repeats. The time is the process's CPU time, which a
# descheduled process does not add to. It prints the minima as JSON.
LINEARITY_TIMER = """
import json, time
from oddgraceful import FamilySpec, label_closed_form, make_union, verify_odd_graceful

sizes = (100_000, 200_000, 1_000_000, 2_000_000)
seconds = dict.fromkeys(sizes, float("inf"))
verified_ok = True
for round_no in range(15):
    for q in sizes:
        spec = FamilySpec(40, q - 39)
        labeling = None  # the previous output is freed before timing
        start = time.process_time()
        labeling = label_closed_form(spec)
        seconds[q] = min(seconds[q], time.process_time() - start)
        if round_no == 0 and q <= 1_000_000:
            verified_ok = verified_ok and verify_odd_graceful(make_union(spec), labeling).ok
print(json.dumps({"seconds": list(seconds.items()), "verified_ok": verified_ok}))
"""


def test_criterion_7_construction_linearity(capsys):
    # The child holds none of the objects the tests before this one left
    # behind, which made the first ratio read higher in a full run.
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    proc = subprocess.run([sys.executable, "-c", LINEARITY_TIMER], env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    result = json.loads(proc.stdout)
    seconds, verified_ok = dict(result["seconds"]), result["verified_ok"]
    ratios = {q: seconds[2 * q] / seconds[q] for q in (100_000, 1_000_000)}
    passed = all(r <= 2.5 for r in ratios.values()) and verified_ok
    times = ", ".join(f"q={q}:{t:.3f}s" for q, t in seconds.items())
    announce(capsys, 7, "construction linearity", passed,
             f"{times}; ratios "
             + ", ".join(f"{q}->{2*q}:{r:.2f}" for q, r in ratios.items()))
    assert all(r <= 2.5 for r in ratios.values()), ratios
    assert verified_ok


def _mutation_cases():
    # A spread of valid instances to corrupt, small enough to verify quickly.
    specs = [(4, 3), (4, 7), (6, 3), (6, 8), (8, 7), (10, 7), (12, 11), (16, 18), (20, 19)]
    cases = []
    for m, n in specs:
        spec = FamilySpec(m, n)
        cases.append((make_union(spec), label_closed_form(spec)))
    return cases


def _corrupt(rng, g, labeling, incident):
    """Draw a mutation (label swap or single-label rewrite) that provably
    changes either injectivity or the induced weight multiset."""
    labels = list(labeling.labels)
    q = g.edge_count
    while True:
        if rng.random() < 0.5:
            a, b = rng.sample(range(len(labels)), 2)
            mutated = labels.copy()
            mutated[a], mutated[b] = mutated[b], mutated[a]
            touched = {a, b}
        else:
            a = rng.randrange(len(labels))
            x = rng.randrange(2 * q)
            if x == labels[a]:
                continue
            mutated = labels.copy()
            mutated[a] = x
            touched = {a}
        affected = {e for v in touched for e in incident[v]}
        if len(set(mutated)) == len(mutated):
            before = sorted(abs(labels[u] - labels[v]) for u, v in affected)
            after = sorted(abs(mutated[u] - mutated[v]) for u, v in affected)
            if before == after:
                continue  # a symmetry of the labeling, still valid: redraw
        return Labeling(tuple(mutated)), touched, affected


def _localized(report, touched, affected):
    for violation in report.violations:
        if isinstance(violation, DuplicateVertexLabel) and touched & set(violation.vertices):
            return True
        if isinstance(violation, VertexLabelOutOfRange) and violation.vertex in touched:
            return True
        if isinstance(violation, EdgeWeightEven) and violation.edge in affected:
            return True
        if isinstance(violation, DuplicateEdgeWeight) and affected & set(violation.edges):
            return True
    return False


def test_criterion_8_verifier_properties(capsys):
    rng = random.Random(20260810)
    cases = _mutation_cases()
    incidents = []
    for g, _ in cases:
        incident = defaultdict(list)
        for a, b in g.edges:
            incident[a].append((a, b))
            incident[b].append((a, b))
        incidents.append(incident)

    undetected = 0
    unlocalized = 0
    for i in range(1000):
        g, labeling = cases[i % len(cases)]
        mutated, touched, affected = _corrupt(rng, g, labeling, incidents[i % len(cases)])
        report = verify_odd_graceful(g, mutated)
        if report.ok:
            undetected += 1
        elif not _localized(report, touched, affected):
            unlocalized += 1

    complement_failures = []
    for g, labeling in cases:
        mirrored = complement_labeling(labeling, g.edge_count)
        if not verify_odd_graceful(g, mirrored).ok:
            complement_failures.append(g)

    passed = undetected == 0 and unlocalized == 0 and not complement_failures
    announce(capsys, 8, "verifier properties", passed,
             f"1000 mutations detected and localized, "
             f"{len(cases)} complement labelings accepted")
    assert undetected == 0
    assert unlocalized == 0
    assert not complement_failures
