import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oddgraceful
from oddgraceful import (
    FamilySpec,
    Labeling,
    build_labeling_document,
    emit_edge_list,
    emit_report,
    induced_weights,
    label_algorithmic,
    label_closed_form,
    label_short_path,
    make_cycle,
    make_path,
    make_union,
    min_path_order,
    parse_edge_list,
    parse_labeling_document,
    verify_odd_graceful,
)
from oddgraceful.cli import main
from oddgraceful.errors import ValidationError
from oddgraceful.graph import MAX_VERTICES, Graph
from oddgraceful.io_formats import _report_parts

from reference_graph import reference_validate
from reference_verifier import reference_verify_odd_graceful
from strategies import EDGE_LIST_LINES, labeling_texts, small_graphs

SRC_DIR = str(Path(oddgraceful.__file__).resolve().parents[1])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="graph.txt"):
    path = tmp_path / name
    path.write_text(emit_edge_list(g))
    return str(path)


# Digests of the label-200k benchmark reports, which both methods write.
SHA256_40_199961 = "289e85898ed08f3c1bb55aa5c5bff12847602c97612c27956c4a46d9d67255ca"
SHA256_42_199959 = "886f3525571b07c3fe0542bd82d99c3531b6173fa4c21e047e2e74398cf549a0"


def pinned_sha256(report):
    """SHA-256 of a label report with tool_version set back to 0.2.0, the
    version whose reports the pins were taken from."""
    line = f'\n  "tool_version": "{oddgraceful.__version__}",\n'
    assert report.count(line) == 1
    report = report.replace(line, '\n  "tool_version": "0.2.0",\n')
    return hashlib.sha256(report.encode()).hexdigest()


def swap_opposite_parity(labels, a, start):
    """Swap the label of path vertex a with that of the first interior path
    vertex from start on whose label has the other parity. With start past
    a + 1 the two share no edge, so four edge weights turn even."""
    b = next(v for v in range(start, len(labels) - 1) if (labels[v] - labels[a]) % 2)
    labels[a], labels[b] = labels[b], labels[a]


def test_label_valid_instance(capsys):
    code, out, _ = run_cli(capsys, "label", "--cycle", "8", "--path", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["labels"] == [0, 27, 2, 25, 4, 23, 6, 15, 1, 14, 3, 10, 5, 8, 7]


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ("--cycle", "8", "--path", "7"),
            "95c3c23f3bd49869c6389a279d6a8db66c42dd18a99b3b760b35c8f1ece37f84",
        ),
        (
            ("--cycle", "42", "--path", "1000", "--method", "algo"),
            "b4729a548ce02565ea49bbe585e44aff819c59b613091639c51b621ef96d5a22",
        ),
        # The four label-200k benchmark invocations: cycle 42 is the other
        # residue of m mod 4.
        (("--cycle", "40", "--path", "199961"), SHA256_40_199961),
        (("--cycle", "42", "--path", "199959", "--method", "algo"), SHA256_42_199959),
        (("--cycle", "40", "--path", "199961", "--method", "algo"), SHA256_40_199961),
        (("--cycle", "42", "--path", "199959"), SHA256_42_199959),
    ],
)
def test_label_report_bytes_pinned(capsys, argv, sha256):
    # Digests of the reports written by version 0.2.0: with tool_version set
    # back to 0.2.0, no other byte may differ.
    code, out, _ = run_cli(capsys, "label", *argv)
    assert code == 0
    assert pinned_sha256(out) == sha256


def test_label_peak_memory(tmp_path):
    # label builds no graph: it draws the constructor's stream 16 384 labels
    # at a time, makes each chunk's weights from the labels alone, scans both
    # into the verdict's marks and keeps only their compact texts. This reads
    # 1.9 MiB here, set by one chunk's label and weight lists and their int
    # objects; packing the labels and weights in array('q') read 1.5 MiB,
    # packing the constructor's label tuple and keeping every chunk's layout
    # until the write 1.8 MiB, laying each array out from its whole
    # compact text, with the label and weight tuples alive, 3.4 MiB,
    # encoding each int array a second time for its layout 3.5 MiB, and
    # building the graph and freeing it before the emit 3.7 MiB. With the
    # earlier writer, keeping the graph alive through the emit read 5.3 MiB,
    # and validating the graph with the digits made twice read 7.4.
    out = str(tmp_path / "l.json")
    tracemalloc.start()
    try:
        code = main(["label", "--cycle", "40", "--path", "19961", "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 5 * 2**20


def test_label_200k_peak_memory(tmp_path):
    # At the label-200k benchmark size. Building make_union's 200 000 edge
    # tuples for the verifier read about 35 MiB here, taking the weights
    # from the labels alone 24.2 MiB, and writing the report's parts
    # unjoined, each int array laid out from its whole compact text while
    # the label and weight tuples were alive, 22.5 MiB. With both packed in
    # array('q'), the label tuple freed before the layout and each array
    # laid out a chunk at a time, it read 10.95 MiB, and packing the labels
    # straight from the constructor's stream, keeping each int chunk's
    # compact text rather than its layout until the write, 7.1 MiB. Drawing
    # the stream a chunk at a time, with no array, it reads 5.8 MiB on
    # CPython 3.11.7: the compact texts made so far, the verdict's byte
    # marks and the last chunk's lists.
    out = str(tmp_path / "l.json")
    tracemalloc.start()
    try:
        code = main(["label", "--cycle", "40", "--path", "199961", "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 7 * 2**20
    # The --out file holds the bytes pinned for stdout.
    assert pinned_sha256(Path(out).read_bytes().decode()) == SHA256_40_199961


def test_label_builds_no_graph(capsys, monkeypatch):
    # A label report needs the labels and their weights only, so label never
    # reaches make_union, below the minimum path order either, and the
    # pinned reports keep their bytes.
    def no_graph(spec):
        raise AssertionError(f"label built the graph of {spec}")

    monkeypatch.setattr("oddgraceful.cli.make_union", no_graph)
    assert run_cli(capsys, "label", "--cycle", "12", "--path", "6")[0] == 0
    for argv, sha256 in [
        (("--cycle", "8", "--path", "7"),
         "95c3c23f3bd49869c6389a279d6a8db66c42dd18a99b3b760b35c8f1ece37f84"),
        (("--cycle", "42", "--path", "1000", "--method", "algo"),
         "b4729a548ce02565ea49bbe585e44aff819c59b613091639c51b621ef96d5a22"),
    ]:
        test_label_report_bytes_pinned(capsys, argv, sha256)


@pytest.mark.parametrize(
    "argv",
    [
        ("--cycle", "40", "--path", "19961"),
        ("--cycle", "42", "--path", "20000", "--method", "algo"),
        ("--cycle", "42", "--path", "20"),
    ],
)
def test_label_report_builds_no_labeling(capsys, monkeypatch, argv):
    # label draws the report's labels straight from the constructor's stream,
    # so its report path calls no public constructor and builds no Labeling,
    # for either method and below the minimum path order, and the report
    # keeps the bytes the public constructors give.
    m, n = int(argv[1]), int(argv[3])
    spec = FamilySpec(m, n)
    construct = label_algorithmic if "algo" in argv else label_closed_form
    labeling = label_short_path(spec) if n < min_path_order(m) else construct(spec)
    g = make_union(spec)
    doc = build_labeling_document(g, labeling, verify_odd_graceful(g, labeling).ok, (m, n))
    expected = emit_report(doc)

    def no_labeling(*args):
        raise AssertionError(f"label built a labeling: {args[1:]}")

    for name in ("label_closed_form", "label_algorithmic", "label_short_path"):
        monkeypatch.setattr(f"oddgraceful.construct.{name}", no_labeling)
        assert not hasattr(oddgraceful.cli, name)
    monkeypatch.setattr(Labeling, "__init__", no_labeling)
    assert run_cli(capsys, "label", *argv) == (0, expected, "")


def test_label_exits_one_on_a_failing_construction(capsys, monkeypatch):
    # Labels 2 (cycle) and 1 (path) swapped turn three edge weights even. The
    # report and the DOT output both exit 1; the report says ok false and
    # lists the weights the graph would induce.
    spec = FamilySpec(8, 7)
    labels = list(label_closed_form(spec).labels)
    labels[2], labels[8] = labels[8], labels[2]
    bad = Labeling(tuple(labels))
    monkeypatch.setattr("oddgraceful.cli._closed_form_labels", lambda spec: iter(labels))
    code, out, _ = run_cli(capsys, "label", "--cycle", "8", "--path", "7")
    assert code == 1
    assert '\n  "ok": false,\n' in out
    doc = json.loads(out)
    assert doc["labels"] == labels
    assert doc["weights"] == list(induced_weights(make_union(spec), bad))
    code, out, _ = run_cli(capsys, "label", "--cycle", "8", "--path", "7", "--format", "dot")
    assert code == 1
    assert out.startswith("graph G {")


@pytest.mark.parametrize("method", ["closed", "algo"])
@pytest.mark.parametrize("m", [16384, 16386])
def test_label_seam_at_the_chunk_boundary(capsys, m, method):
    # label draws 16 384 labels a chunk. At m = 16 384 label m-1, the left end
    # of the closing edge m-1, is the last label of chunk 0, so that edge is
    # made in chunk 1 from the carried label; at m = 16 386 both its ends and
    # label m, whose place label 0 takes, are in chunk 1. n = 16 383 is
    # min_path_order for both, so q = 32 766 and 32 768, two chunks each.
    assert oddgraceful.cli._CHUNK == 16384
    spec = FamilySpec(m, 16383)
    construct = label_closed_form if method == "closed" else label_algorithmic
    labeling = construct(spec)
    g = make_union(spec)
    doc = build_labeling_document(g, labeling, verify_odd_graceful(g, labeling).ok, (m, 16383))
    argv = ("label", "--cycle", str(m), "--path", "16383", "--method", method)
    assert run_cli(capsys, *argv) == (0, emit_report(doc), "")


@st.composite
def perturbed_family_labelings(draw):
    """union(m, n)'s closed-form labels, m in 4..16 and n from min_path_order
    up, with one perturbation drawn near the closing edge or anywhere: a swap,
    a repeated label, or a label set to any value in [-2, 2q+1] or far out,
    which makes even and repeated weights; and a chunk size about m."""
    m = draw(st.sampled_from(range(4, 17, 2)))
    spec = FamilySpec(m, draw(st.integers(min_path_order(m), min_path_order(m) + 12)))
    labels = list(label_closed_form(spec).labels)
    q = spec.edge_count
    vertices = st.one_of(st.sampled_from((0, m - 1, m)), st.integers(0, len(labels) - 1))
    i = draw(vertices)
    kind = draw(st.sampled_from(("none", "swap", "repeat", "set")))
    if kind == "swap":
        j = draw(vertices)
        labels[i], labels[j] = labels[j], labels[i]
    elif kind == "repeat":
        labels[i] = labels[draw(vertices)]
    elif kind == "set":
        labels[i] = draw(st.one_of(st.integers(-2, 2 * q + 1), st.sampled_from((-4 * q, 4 * q))))
    return spec, labels, draw(st.sampled_from((1, 2, 3, m - 1, m, m + 1)))


def with_label(spec, vertex, label):
    labels = list(label_closed_form(spec).labels)
    labels[vertex] = label
    return labels


@settings(max_examples=300, deadline=None)
@given(perturbed_family_labelings())
# union(8, 7) is labeled 0 27 2 25 4 23 6 15 | 1 14 3 10 5 8 7. Label 16 on
# vertex 7 makes the closing edge's weight even (16), in the third chunk of
# three; label 9 on vertex 14 repeats weight 1 in the last chunk.
@example((FamilySpec(8, 7), with_label(FamilySpec(8, 7), 7, 16), 3))
@example((FamilySpec(8, 7), with_label(FamilySpec(8, 7), 14, 9), 3))
@example((FamilySpec(8, 7), with_label(FamilySpec(8, 7), 0, -1), 7))
@example((FamilySpec(8, 7), with_label(FamilySpec(8, 7), 8, 28), 8))
def test_label_chunked_verdict_matches_the_verifier(case):
    # label scans and formats the stream a chunk at a time, carrying one label
    # across each seam; at any chunk size its exit code and report must be
    # the verifier's verdict and the document build_labeling_document makes.
    spec, labels, size = case
    m, n = spec.cycle_order, spec.path_order
    g = make_union(spec)
    labeling = Labeling(tuple(labels))
    ok = verify_odd_graceful(g, labeling).ok
    expected = emit_report(build_labeling_document(g, labeling, ok, (m, n)))
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr("oddgraceful.cli._closed_form_labels", lambda spec: iter(labels))
        patch.setattr("oddgraceful.cli._CHUNK", size)
        code = main(["label", "--cycle", str(m), "--path", str(n)])
    assert code == (0 if ok else 1)
    assert out.getvalue() == expected


@pytest.mark.parametrize("size", [4, 16384])
@pytest.mark.parametrize("fmt", [(), ("--format", "dot")])
@pytest.mark.parametrize("change", [-1, 1])
def test_label_stream_of_the_wrong_length_exits_usage(tmp_path, capsys, monkeypatch, change, fmt, size):
    # A stream one label short or one long is refused once it runs out, with
    # the verifier's message, before --out is opened.
    labels = list(label_closed_form(FamilySpec(8, 7)).labels)
    labels = labels[:-1] if change < 0 else labels + [0]
    monkeypatch.setattr("oddgraceful.cli._closed_form_labels", lambda spec: iter(labels))
    monkeypatch.setattr("oddgraceful.cli._CHUNK", size)
    out = tmp_path / "l.json"
    result = run_cli(capsys, "label", "--cycle", "8", "--path", "7", *fmt, "--out", str(out))
    assert result == (64, "", f"error: labeling covers {len(labels)} vertices, graph has 15\n")
    assert not out.exists()


def test_verify_failing_peak_memory(tmp_path):
    # A failing file costs no more than a passing one: the failure detail is
    # built from the verifier's byte marks. Set passes over the labels and
    # weights with the graph alive through the emit peaked at 1.55 times the
    # passing file here. Only the stage where the two files can differ is
    # traced, the verifier plus the report parts, after both files are
    # parsed: tracing the whole verify command let the parsing the two share
    # set both peaks, so they differed by allocation noise alone. The digest
    # is fed before the stage, as verify feeds it while reading. This stage
    # reads 969 064 B for either file.
    graph_text = emit_edge_list(make_union(FamilySpec(40, 19_961)))
    assert main(["label", "--cycle", "40", "--path", "19961", "--out", str(tmp_path / "l.json")]) == 0
    doc = json.loads((tmp_path / "l.json").read_text())
    good_text = json.dumps(doc)
    swap_opposite_parity(doc["labels"], 40 + 5_000, 40 + 12_000)
    bad_text = json.dumps(doc)
    g = parse_edge_list(graph_text)
    peaks = []
    for labeling_text, ok in ((good_text, True), (bad_text, False)):
        labeling = Labeling(parse_labeling_document(labeling_text).labels)
        digest = hashlib.sha256(graph_text.encode())
        digest.update(labeling_text.encode())
        tracemalloc.start()
        try:
            report = verify_odd_graceful(g, labeling)
            parts = _report_parts(report, digest)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.ok is ok
        assert json.loads("".join(parts))["ok"] is ok
    assert peaks[1] <= peaks[0]


def test_verify_200k_peak_memory(tmp_path, capsys):
    # At the verify-200k benchmark size: a permuted, re-oriented union(40,
    # 199 961) graph and its labeling. The graph holds its edges as two
    # array('q') endpoint columns, and verify builds no duplicate key set
    # for them: its verdict proves the graph simple. Each input text is
    # hashed as it is read and freed once it is parsed, so the labeling
    # document's parse, with its text and lists alive, sets the peak; the
    # key set with the graph text alive, which earlier versions built, peaked
    # about as high. This reads 23.17 MiB on CPython 3.11.7 with or without
    # the key set (23.32 MiB on 3.10.13 with it). Holding both texts through
    # the whole run, to hash them for the report, read 27.8 MiB on both;
    # 200 000 edge tuples, with their own set as the dedupe set, read
    # 46.7 MiB.
    spec = FamilySpec(40, 199_961)
    n = spec.cycle_order + spec.path_order
    rng = random.Random(1)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a])
             for a, b in make_union(spec).edges]
    rng.shuffle(edges)
    labels = [0] * n
    for v, x in enumerate(label_closed_form(spec).labels):
        labels[perm[v]] = x
    doc = {"kind": "labeling", "family": {"cycle_order": 40, "path_order": 199_961},
           "edge_count": len(edges), "labels": labels, "ok": True,
           "weights": [abs(labels[a] - labels[b]) for a, b in edges]}
    graph_file, labeling_file = tmp_path / "g.txt", tmp_path / "l.json"
    graph_file.write_text(f"graph {n}\n" + "".join(f"{a} {b}\n" for a, b in edges))
    labeling_file.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    del edges, labels, doc
    tracemalloc.start()
    try:
        code = main(["verify", str(graph_file), str(labeling_file)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert peak < 24 * 2**20


@pytest.mark.parametrize(
    "text, message",
    [
        (f"graph 3\n0 1\n{2**63} 1\n", f"edge ({2**63}, 1) has an endpoint outside 0..2"),
        (f"graph 3\n{-(2**63) - 1} 2\n", f"edge ({-(2**63) - 1}, 2) has an endpoint outside 0..2"),
        (f"0 1\n1 {2**63}\n2 1\n", f"vertex count {2**63 + 1} exceeds the maximum {MAX_VERTICES}"),
        (f"0 1\n{-(2**64)} 1\n", f"edge ({-(2**64)}, 1) has an endpoint outside 0..1"),
    ],
)
def test_endpoint_past_64_bits_exits_usage(tmp_path, text, message):
    # array('q') columns hold 64-bit ids; a larger one is reported like any
    # other out-of-range id or implied vertex count, never as an OverflowError.
    (tmp_path / "g.txt").write_text(text)
    for argv in (("dot", "g.txt"), ("search", "g.txt")):
        proc = run_module("-m", "oddgraceful", *argv, cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (64, "", f"error: {message}\n")


@pytest.mark.parametrize("method", ["closed", "algo"])
def test_label_below_minimum_verifies(tmp_path, capsys, method):
    # Below the paper's minimum path order, label takes the short-path form
    # for either method, and its report passes verify.
    labeling_file = tmp_path / "l.json"
    code, _, _ = run_cli(capsys, "label", "--cycle", "10", "--path", "6", "--method", method,
                         "--out", str(labeling_file))
    assert code == 0
    assert json.loads(labeling_file.read_text())["ok"] is True
    graph_file = write_graph(tmp_path, make_union(FamilySpec(10, 6)))
    code, out, _ = run_cli(capsys, "verify", graph_file, str(labeling_file))
    assert code == 0
    assert json.loads(out)["ok"] is True


@settings(max_examples=100, deadline=None)
@given(st.integers(-2, 60), st.integers(-1, 80))
def test_label_exit_code_covers_every_family_member(m, n):
    # Every C_m + P_n with even m >= 4 and n >= 2 is labeled and verified;
    # every other order is a bad parameter.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["label", "--cycle", str(m), "--path", str(n)])
    assert code == (0 if m >= 4 and m % 2 == 0 and n >= 2 else 64)


def test_label_rejects_odd_cycle(capsys):
    code, out, err = run_cli(capsys, "label", "--cycle", "7", "--path", "5")
    assert (code, out, err) == (64, "", "error: cycle order must be an even integer >= 4, got 7\n")


def test_label_rejects_one_vertex_path(capsys):
    code, out, err = run_cli(capsys, "label", "--cycle", "4", "--path", "1")
    assert (code, out, err) == (64, "", "error: path order must be at least 2, got 1\n")


def test_label_methods_agree(capsys):
    code_a, out_a, _ = run_cli(capsys, "label", "--cycle", "6", "--path", "5")
    code_b, out_b, _ = run_cli(capsys, "label", "--cycle", "6", "--path", "5", "--method", "algo")
    assert code_a == code_b == 0
    assert json.loads(out_a)["labels"] == json.loads(out_b)["labels"]


def test_label_dot_format(capsys):
    code, out, _ = run_cli(capsys, "label", "--cycle", "4", "--path", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("graph G {")
    assert '[label="11"]' in out


@pytest.mark.parametrize(
    "cycle, path, method",
    # (12, 6) takes the short-path form; (40, 199961) is the label-200k size.
    [("8", "7", "closed"), ("42", "1000", "algo"), ("12", "6", "closed"), ("40", "199961", "closed")],
)
def test_label_dot_equals_dot_of_its_report(tmp_path, capsys, cycle, path, method):
    # label's own DOT output and its report's labels drawn on the parsed edge
    # list by dot must agree byte for byte.
    labeling_file = str(tmp_path / "l.json")
    argv = ["label", "--cycle", cycle, "--path", path, "--method", method]
    assert run_cli(capsys, *argv, "--out", labeling_file)[0] == 0
    code, label_dot, _ = run_cli(capsys, *argv, "--format", "dot")
    assert code == 0
    graph_file = write_graph(tmp_path, make_union(FamilySpec(int(cycle), int(path))))
    assert run_cli(capsys, "dot", graph_file, "--labeling", labeling_file) == (0, label_dot, "")


def test_label_out_writes_file(tmp_path, capsys):
    target = tmp_path / "labeling.json"
    code, out, _ = run_cli(
        capsys, "label", "--cycle", "4", "--path", "3", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["ok"] is True


def test_verify_round_trip(tmp_path, capsys):
    # label's file passes verify against make_union's edge list, small and at
    # the benchmark size.
    for spec in (FamilySpec(4, 3), FamilySpec(40, 199_961)):
        files = write_union_files(tmp_path, capsys, spec)
        code, out, _ = run_cli(capsys, "verify", str(files["graph"]), str(files["labeling"]))
        assert code == 0
        assert json.loads(out)["ok"] is True


def test_verify_detects_corruption(tmp_path, capsys):
    # A label copied onto its neighbour, and at the benchmark size two path
    # labels of opposite parity swapped.
    def copy_label(labels):
        labels[0] = labels[1]

    def swap_labels(labels):
        swap_opposite_parity(labels, 40 + 50_000, 40 + 120_000)

    for spec, corrupt, kind in [
        (FamilySpec(4, 3), copy_label, "duplicate-vertex-label"),
        (FamilySpec(40, 199_961), swap_labels, "edge-weight-even"),
    ]:
        files = write_union_files(tmp_path, capsys, spec)
        valid_text = files["labeling"].read_text()
        doc = json.loads(valid_text)
        corrupt(doc["labels"])
        files["labeling"].write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(files["graph"]), str(files["labeling"]))
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert kind in [v["kind"] for v in report["violations"]]
    # The first cycle edge again, reversed, at the end of the benchmark-size
    # graph file: the duplicate probe must find it.
    graph_text = files["graph"].read_text()
    with files["graph"].open("a") as f:
        f.write("1 0\n")
    code, out, err = run_cli(capsys, "verify", str(files["graph"]), str(files["labeling"]))
    assert (code, out, err) == (64, "", "error: duplicate edge (1, 0)\n")
    # The same edge in place of the last path edge: the edge and vertex
    # counts stay, so the valid labeling fits, and its failing report, not
    # a labeling error, is what must lead verify to name the duplicate.
    head, last = graph_text[:-1].rsplit("\n", 1)
    assert last == "199999 200000"
    files["graph"].write_text(head + "\n1 0\n")
    files["labeling"].write_text(valid_text)
    code, out, err = run_cli(capsys, "verify", str(files["graph"]), str(files["labeling"]))
    assert (code, out, err) == (64, "", "error: duplicate edge (1, 0)\n")


def test_verify_parse_error_names_line(tmp_path, capsys):
    bad = tmp_path / "graph.txt"
    bad.write_text("0 1\nbroken line here\n")
    labeling_file = tmp_path / "labeling.json"
    run_cli(capsys, "label", "--cycle", "4", "--path", "3", "--out", str(labeling_file))
    code, _, err = run_cli(capsys, "verify", str(bad), str(labeling_file))
    assert code == 64
    assert "line 2" in err


def test_verify_names_the_graph_error_before_reading_the_labeling(tmp_path, capsys):
    # verify parses the graph before it reads the labeling file, as dot
    # --labeling does, so a bad graph is named even when the labeling file
    # is missing.
    bad = tmp_path / "graph.txt"
    bad.write_text("0 1\nbroken\n")
    code, out, err = run_cli(capsys, "verify", str(bad), str(tmp_path / "missing.json"))
    assert (code, out, err) == (64, "", "error: line 2: expected two endpoints, got 'broken'\n")


# union(4, 3)'s edge list with one faulty edge appended, for 7 vertices and
# 7 edges, and the error that names it.
GRAPH_FAULTS = {
    "duplicate": ("2 3", "duplicate edge (2, 3)"),
    "reversed-duplicate": ("1 0", "duplicate edge (1, 0)"),
    "self-loop": ("5 5", "self-loop at vertex 5"),
}


def u43_document(**changes):
    """A labeling document for a graph of 7 vertices and 7 edges: union(4,
    3)'s labels, with the fields given replaced."""
    labels = list(label_closed_form(FamilySpec(4, 3)).labels)
    doc = {"kind": "labeling", "family": None, "edge_count": 7, "labels": labels,
           "weights": [1] * 7, "ok": False}
    return json.dumps({**doc, **changes}).encode()


# Labeling files by fault, as bytes; None leaves the file missing. "fits"
# has no fault of its own: verify's failing report must find the graph's.
LABELING_FAULTS = {
    "missing": None,
    "non-utf8": b'{"kind": "labeling\xff"}',
    "bad-json": b'{"kind": ',
    "wrong-kind": u43_document(kind="verify-report"),
    "edge-count": u43_document(edge_count=6, weights=[1] * 6),
    "label-count": u43_document(labels=[0, 1, 2]),
    "true-label": u43_document(labels=[True, 11, 2, 7, 1, 4, 3]),
    "fits": u43_document(),
}


@pytest.mark.parametrize("labeling_fault", LABELING_FAULTS)
@pytest.mark.parametrize("graph_fault", GRAPH_FAULTS)
def test_verify_names_a_faulty_graph_before_the_labeling(tmp_path, capsys, graph_fault, labeling_fault):
    # Whatever is wrong with the labeling file, or when nothing is, a graph
    # with a repeated edge or a self-loop is the error named, and nothing is
    # written.
    extra, message = GRAPH_FAULTS[graph_fault]
    graph_file, labeling_file = tmp_path / "g.txt", tmp_path / "l.json"
    graph_file.write_text(emit_edge_list(make_union(FamilySpec(4, 3))) + f"{extra}\n")
    if LABELING_FAULTS[labeling_fault] is not None:
        labeling_file.write_bytes(LABELING_FAULTS[labeling_fault])
    code, out, err = run_cli(capsys, "verify", str(graph_file), str(labeling_file))
    assert (code, out, err) == (64, "", f"error: {message}\n")


@st.composite
def faulty_verify_inputs(draw):
    """A small edge list with a header and repeats in either orientation,
    self-loops and out-of-range ids inserted, and a labeling document of
    arbitrary ints that fits its vertex and edge counts: negative ones and
    ones of 2q or more too, so a repeated weight can lie outside 0..2q-1."""
    g = draw(small_graphs(max_vertices=6, min_vertices=1))
    n, edges = g.vertex_count, list(g.edges)
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["repeat", "loop", "range"] if edges else ["loop", "range"]))
        if fault == "repeat":
            a, b = draw(st.sampled_from(edges))
        elif fault == "loop":
            a = b = draw(st.integers(0, n - 1))
        else:
            a, b = draw(st.integers(0, n - 1)), draw(st.integers(-3, -1) | st.integers(n, n + 3))
        edges.insert(draw(st.integers(0, len(edges))), (b, a) if draw(st.booleans()) else (a, b))
    q = len(edges)
    labels = draw(st.lists(st.integers(-2 * q - 2, 4 * q + 2), min_size=n, max_size=n))
    doc = {"kind": "labeling", "family": None, "edge_count": q, "labels": labels,
           "weights": [1] * q, "ok": True}
    graph_text = f"graph {n}\n" + "".join(f"{a} {b}\n" for a, b in edges)
    return n, edges, graph_text, json.dumps(doc)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(faulty_verify_inputs())
def test_verify_matches_validation_then_reference_verifier(tmp_path, inputs):
    # verify proves the graph simple from its verdict; whatever it finds must
    # be what validating every edge first and then verifying would give.
    n, edges, graph_text, labeling_text = inputs
    try:
        reference_validate(n, tuple(edges))
    except ValidationError as exc:
        expected = (64, "", f"error: {exc}\n")
    else:
        labels = tuple(json.loads(labeling_text)["labels"])
        report = reference_verify_odd_graceful(Graph(n, edges), Labeling(labels))
        digest = hashlib.sha256((graph_text + labeling_text).encode())
        expected = (0 if report.ok else 1, "".join(_report_parts(report, digest)), "")
    graph_file, labeling_file = tmp_path / "g.txt", tmp_path / "l.json"
    graph_file.write_text(graph_text)
    labeling_file.write_text(labeling_text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(graph_file), str(labeling_file)])
    assert (code, out.getvalue(), err.getvalue()) == expected


# A \r\n edge list of union(4, 3) and a \r\n labeling document of it. Both
# are read with universal newlines, so input_digest is the SHA-256 of the two
# texts with \n line ends, one after the other.
CRLF_GRAPH = "graph 7\n0 1\n1 2\n2 3\n3 0\n4 5\n5 6\n"
CRLF_LABELING = (
    '{\n  "edge_count": 6,\n  "family": {"cycle_order": 4, "path_order": 3},\n'
    '  "kind": "labeling",\n  "labels": [0, 11, 2, 7, 1, 4, 3],\n'
    '  "ok": true,\n  "weights": [11, 9, 5, 7, 3, 1]\n}\n'
)


def test_verify_digest_of_crlf_inputs_pinned(tmp_path, capsys):
    graph_file, labeling_file = tmp_path / "g.txt", tmp_path / "l.json"
    graph_file.write_bytes(CRLF_GRAPH.replace("\n", "\r\n").encode())
    labeling_file.write_bytes(CRLF_LABELING.replace("\n", "\r\n").encode())
    code, out, _ = run_cli(capsys, "verify", str(graph_file), str(labeling_file))
    assert code == 0
    digest = json.loads(out)["input_digest"]
    assert digest == "sha256:" + hashlib.sha256((CRLF_GRAPH + CRLF_LABELING).encode()).hexdigest()
    assert digest == "sha256:c14aae11477473f535f883d4db0a85ea07956e9778befce77328b800a52fa5f0"


@pytest.mark.parametrize("header", ["graph", "graph 3 4", "graph x"])
def test_verify_malformed_header_exits_usage(tmp_path, capsys, header):
    bad = tmp_path / "graph.txt"
    bad.write_text(f"{header}\n0 1\n")
    labeling_file = tmp_path / "labeling.json"
    run_cli(capsys, "label", "--cycle", "4", "--path", "3", "--out", str(labeling_file))
    code, out, err = run_cli(capsys, "verify", str(bad), str(labeling_file))
    assert code == 64
    assert out == ""
    assert err.startswith("error: line 1: ")


@pytest.mark.parametrize(
    "field, value",
    [
        ("labels", [0.7, 1.9]),
        ("labels", [True, False]),
        ("labels", ["0", "1"]),
        ("labels", "0123"),
        ("weights", [1.0, 3.0]),
        ("edge_count", 6.0),
        ("family", {"cycle_order": 4.0, "path_order": 3}),
        ("ok", "no"),
        ("ok", 1),
    ],
)
def test_verify_rejects_non_integer_documents(tmp_path, capsys, field, value):
    labeling_file = tmp_path / "labeling.json"
    run_cli(capsys, "label", "--cycle", "4", "--path", "3", "--out", str(labeling_file))
    doc = json.loads(labeling_file.read_text())
    doc[field] = value
    labeling_file.write_text(json.dumps(doc))
    graph_file = write_graph(tmp_path, make_union(FamilySpec(4, 3)))
    code, out, err = run_cli(capsys, "verify", graph_file, str(labeling_file))
    assert code == 64
    assert out == ""
    assert err.startswith("error: malformed labeling document")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000, "error: invalid JSON: nested too deeply\n"),
        ('{"kind": "labeling", "labels": [' + "9" * 5000 + "]}", "error: invalid JSON: Exceeds"),
    ],
    ids=["deep-nesting", "long-integer"],
)
def test_verify_unparsable_json_exits_usage(tmp_path, capsys, text, message):
    labeling_file = tmp_path / "labeling.json"
    labeling_file.write_text(text)
    graph_file = write_graph(tmp_path, make_path(2))
    code, out, err = run_cli(capsys, "verify", graph_file, str(labeling_file))
    assert code == 64
    assert out == ""
    assert err.startswith(message)


P2_DOCUMENT = {
    "kind": "labeling",
    "family": None,
    "edge_count": 1,
    "labels": [0, 1],
    "weights": [1],
    "ok": True,
}


def write_p2_document(tmp_path, **changes):
    graph_file = write_graph(tmp_path, make_path(2))
    labeling_file = tmp_path / "labeling.json"
    labeling_file.write_text(json.dumps({**P2_DOCUMENT, **changes}))
    return graph_file, str(labeling_file)


def test_verify_recomputes_weights_and_ok(tmp_path, capsys):
    # Stored weight values and the ok flag are derived data, not trusted.
    graph_file, labeling_file = write_p2_document(tmp_path, weights=[7], ok=False)
    code, out, _ = run_cli(capsys, "verify", graph_file, labeling_file)
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize(
    "changes, message",
    [
        (
            {"edge_count": 3, "weights": [7, 7, 7], "ok": False},
            "labeling document has edge_count 3, graph has 1 edges",
        ),
        ({"weights": [1, 3]}, "labeling document lists 2 weights for edge_count 1"),
        ({"weights": []}, "labeling document lists 0 weights for edge_count 1"),
        (
            {"family": {"cycle_order": 4, "path_order": 3}},
            "labeling document family (4, 3) has 6 edges, edge_count is 1",
        ),
    ],
    ids=["edge-count", "extra-weights", "missing-weights", "family"],
)
@pytest.mark.parametrize("command", ["verify", "dot"])
def test_inconsistent_labeling_document_exits_usage(tmp_path, capsys, command, changes, message):
    graph_file, labeling_file = write_p2_document(tmp_path, **changes)
    if command == "verify":
        argv = [graph_file, labeling_file]
    else:
        argv = [graph_file, "--labeling", labeling_file]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 64
    assert out == ""
    assert err == f"error: {message}\n"


# Python's limit on the digits that str() and the JSON codec convert: 4 300
# by default, 0 for none; Pythons before 3.10.7 have no limit.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", int)()
TOO_LONG = f"<more than {INT_DIGITS} digits>"


@pytest.mark.skipif(not INT_DIGITS, reason="this Python converts ints of any length")
@pytest.mark.parametrize(
    "argv, message",
    [
        # FamilySpec's m + n, one digit past the limit.
        (["label", "--cycle", str(10**INT_DIGITS - 2), "--path", "2"],
         f"cycle + path order must be <= {MAX_VERTICES}, got {TOO_LONG}"),
        # The edge count of a document's family, one digit past the limit.
        (["verify", "{graph}", "{family}"], f"has {TOO_LONG} edges, edge_count is 1"),
        (["dot", "{graph}", "--labeling", "{family}"], f"has {TOO_LONG} edges, edge_count is 1"),
        # Labels whose weight is one digit past the limit.
        (["verify", "{graph}", "{spread}", "--out", "{out}"],
         f"cannot write the report: an integer in its violations has more than {INT_DIGITS} digits"),
        (["dot", "{graph}", "--labeling", "{spread}", "--out", "{out}"],
         f"cannot write the DOT: an edge weight has more than {INT_DIGITS} digits"),
        # The count a headerless edge list implies, one digit past the limit.
        (["search", "{headerless}"], f"vertex count {TOO_LONG} exceeds the maximum {MAX_VERTICES}"),
        (["dot", "{headerless}"], f"vertex count {TOO_LONG} exceeds the maximum {MAX_VERTICES}"),
        (["verify", "{headerless}", "{family}"],
         f"vertex count {TOO_LONG} exceeds the maximum {MAX_VERTICES}"),
    ],
    ids=["label", "verify-family", "dot-family", "verify-weight", "dot-weight",
         "search-headerless", "dot-headerless", "verify-headerless"],
)
def test_integer_past_the_digit_limit_exits_usage(tmp_path, capsys, argv, message):
    # An int that str() refuses to convert exits 64 with one error line, and
    # nothing is written to stdout or to --out.
    largest = 10**INT_DIGITS - 1
    graph, family = write_p2_document(tmp_path, family={"cycle_order": largest, "path_order": largest})
    spread = tmp_path / "spread.json"
    spread.write_text(json.dumps({**P2_DOCUMENT, "labels": [largest, -largest], "ok": False}))
    headerless = tmp_path / "headerless.txt"
    headerless.write_text(f"0 {largest}\n")
    out = tmp_path / "out"
    files = {"graph": graph, "family": family, "spread": spread, "headerless": headerless, "out": out}
    code, stdout, stderr = run_cli(capsys, *[arg.format(**files) for arg in argv])
    assert (code, stdout) == (64, "")
    assert stderr.startswith("error: ") and stderr.endswith(f"{message}\n")
    assert stderr.count("\n") == 1
    assert not out.exists()


def run_module(*args, cwd, timeout=60):
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout
    )


def test_missing_input_file_exits_usage(tmp_path):
    proc = run_module("-m", "oddgraceful", "verify", "nope.txt", "l.json", cwd=tmp_path)
    assert proc.returncode == 64
    assert proc.stderr.startswith("error: ")
    assert "nope.txt" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_python_m_entry_point(tmp_path):
    proc = run_module("-m", "oddgraceful", "--version", cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"oddgraceful {oddgraceful.__version__}"


def test_cli_import_does_not_load_multiprocessing(tmp_path):
    probe = "import sys, oddgraceful.cli; print('multiprocessing' in sys.modules)"
    proc = run_module("-c", probe, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_search_odd_cycle_exits_two(tmp_path, capsys):
    graph_file = write_graph(tmp_path, make_cycle(5))
    code, out, _ = run_cli(capsys, "search", graph_file)
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "exhausted-not-found"
    assert sorted(doc["odd_cycle_witness"]) == [0, 1, 2, 3, 4]


def test_search_even_cycle_exits_zero(tmp_path, capsys):
    graph_file = write_graph(tmp_path, make_cycle(6))
    code, out, _ = run_cli(capsys, "search", graph_file)
    assert code == 0
    assert json.loads(out)["verdict"] == "found"


def test_search_budget_exits_three(tmp_path, capsys):
    graph_file = write_graph(tmp_path, make_cycle(6))
    code, out, _ = run_cli(capsys, "search", graph_file, "--budget", "2")
    assert code == 3
    assert json.loads(out)["verdict"] == "budget-exceeded"


def test_search_deep_path_exits_three_at_budget(tmp_path, capsys):
    graph_file = write_graph(tmp_path, make_path(1500))
    code, out, err = run_cli(capsys, "search", graph_file, "--budget", "5000")
    assert code == 3
    assert err == ""
    doc = json.loads(out)
    assert doc["verdict"] == "budget-exceeded"
    assert doc["nodes_explored"] == 5000


def test_search_negative_budget_exits_usage(tmp_path, capsys):
    graph_file = write_graph(tmp_path, make_cycle(6))
    code, out, err = run_cli(capsys, "search", graph_file, "--budget", "-5")
    assert code == 64
    assert out == ""
    assert err == "error: node budget must be non-negative, got -5\n"
    code, out, _ = run_cli(capsys, "search", graph_file, "--budget", "0")
    assert code == 3
    assert json.loads(out)["nodes_explored"] == 0


def test_search_all_reports_even_count(tmp_path, capsys):
    graph_file = write_graph(tmp_path, make_union(FamilySpec(4, 3)))
    code, out, _ = run_cli(capsys, "search", graph_file, "--all")
    assert code == 0
    doc = json.loads(out)
    assert (doc["solutions_found"], doc["nodes_explored"]) == (960, 10440)


def test_search_dot_without_labeling_keeps_verdict(tmp_path, capsys):
    # With nothing found, --format dot draws the bare graph and the exit code
    # stays the search verdict: 2 for exhausted, 3 for the budget cut.
    for name, g, budget, verdict in [
        ("c9.txt", make_cycle(9), [], 2),
        ("u43.txt", make_union(FamilySpec(4, 3)), ["--budget", "0"], 3),
    ]:
        graph_file = write_graph(tmp_path, g, name)
        _, bare, _ = run_cli(capsys, "dot", graph_file)
        assert run_cli(capsys, "search", graph_file, *budget, "--format", "dot") == (
            verdict, bare, ""
        )


def test_dot_subcommand(tmp_path, capsys):
    graph_file = write_graph(tmp_path, make_cycle(4))
    code, out, _ = run_cli(capsys, "dot", graph_file)
    assert code == 0
    assert "0 -- 1;" in out


def test_dot_subcommand_with_labeling(tmp_path, capsys):
    labeling_file = tmp_path / "labeling.json"
    run_cli(capsys, "label", "--cycle", "4", "--path", "3", "--out", str(labeling_file))
    graph_file = write_graph(tmp_path, make_union(FamilySpec(4, 3)))
    code, out, _ = run_cli(capsys, "dot", graph_file, "--labeling", str(labeling_file))
    assert code == 0
    assert '[label="11"]' in out


def test_dot_labeling_of_wrong_length_writes_no_out_file(tmp_path, capsys):
    # The DOT lines are written as they are made, but the weights are
    # computed first: a labeling that does not fit the graph exits 64 before
    # --out is opened.
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(CRLF_GRAPH)
    labeling_file = tmp_path / "l.json"
    labeling_file.write_text(CRLF_LABELING.replace("[0, 11, 2, 7, 1, 4, 3]", "[0, 11, 2, 7, 1, 4]"))
    out = tmp_path / "g.dot"
    code, _, err = run_cli(
        capsys, "dot", str(graph_file), "--labeling", str(labeling_file), "--out", str(out)
    )
    assert (code, err) == (64, "error: labeling covers 6 vertices, graph has 7\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search", "{graph}", "--budget", "abc"], "argument --budget: invalid int value: 'abc'"),
        (["label", "--cycle", "x", "--path", "3"], "argument --cycle: invalid int value: 'x'"),
        (["label", "--cycle", "4", "--path", "3", "--method", "fast"],
         "argument --method: invalid choice: 'fast'"),
        (["search", "{graph}", "--format", "svg"], "argument --format: invalid choice: 'svg'"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["verify", "{graph}", "{graph}", "--quick"], "unrecognized arguments: --quick"),
        (["label", "--cycle", "4"], "the following arguments are required: --path"),
        (["dot"], "the following arguments are required: graph_file"),
        ([], "the following arguments are required: command"),
        # Removed subcommands and flags stay rejected.
        (["bench", "--q-list", "6,12"], "argument command: invalid choice: 'bench'"),
        (["table", "--m-max", "4"], "argument command: invalid choice: 'table'"),
        (["search", "{graph}", "--no-precheck"], "unrecognized arguments: --no-precheck"),
        (["label", "--cycle", "10", "--path", "6", "--force"], "unrecognized arguments: --force"),
        (["verify", "{graph}", "{graph}", "--format", "dot"], "unrecognized arguments: --format dot"),
        (["dot", "{graph}", "--format", "report"], "unrecognized arguments: --format report"),
    ],
    ids=["bad-int", "bad-int-label", "bad-choice", "bad-format", "unknown-command",
         "unknown-flag", "missing-flag", "missing-positional", "no-command",
         "bench-gone", "table-gone", "no-precheck-gone", "label-force-gone",
         "verify-format-gone", "dot-format-gone"],
)
def test_rejected_command_line_exits_usage(tmp_path, capsys, argv, message):
    # argparse's own exit status is 2, which search also uses for its
    # exhausted verdict; every rejection must exit 64 with argparse's usage.
    graph_file = write_graph(tmp_path, make_union(FamilySpec(4, 3)))
    with pytest.raises(SystemExit) as exc_info:
        main([arg.format(graph=graph_file) for arg in argv])
    assert exc_info.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: oddgraceful")
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize(
    "argv", [["--help"], ["--version"], ["search", "--help"]], ids=["help", "version", "search-help"]
)
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("command", ["label", "search"])
def test_format_flag_of_label_verify_search(tmp_path, capsys, command):
    argv = {
        "label": ["label", "--cycle", "4", "--path", "3"],
        "search": ["search", write_graph(tmp_path, make_union(FamilySpec(4, 3)))],
    }[command]
    code, default, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--format", "report") == (0, default, "")
    code, dot, _ = run_cli(capsys, *argv, "--format", "dot")
    assert code == 0
    assert dot.startswith("graph G {")


def write_union_files(tmp_path, capsys, spec=FamilySpec(4, 3)):
    """make_union(spec)'s edge list and label's document for it, by file kind."""
    files = {"graph": tmp_path / "graph.txt", "labeling": tmp_path / "labeling.json"}
    argv = ["--cycle", str(spec.cycle_order), "--path", str(spec.path_order)]
    assert run_cli(capsys, "label", *argv, "--out", str(files["labeling"]))[0] == 0
    files["graph"].write_text(emit_edge_list(make_union(spec)))
    return files


@pytest.mark.parametrize(
    "bad, command",
    [
        ("graph", ["verify", "{graph}", "{labeling}"]),
        ("labeling", ["verify", "{graph}", "{labeling}"]),
        ("graph", ["search", "{graph}"]),
        ("graph", ["dot", "{graph}"]),
        ("labeling", ["dot", "{graph}", "--labeling", "{labeling}"]),
    ],
    ids=["verify-graph", "verify-labeling", "search", "dot", "dot-labeling"],
)
def test_non_utf8_input_exits_usage(tmp_path, capsys, bad, command):
    files = write_union_files(tmp_path, capsys)
    files[bad].write_bytes(b"\xff" + files[bad].read_bytes())
    code, out, err = run_cli(capsys, *[arg.format(**files) for arg in command])
    assert code == 64
    assert out == ""
    assert err == f"error: {files[bad]} is not UTF-8 text: invalid start byte at offset 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["label", "--cycle", "4", "--path", "3", "--out", ""],
        ["verify", "{graph}", "{labeling}", "--out", ""],
        ["dot", "{graph}", "--labeling", ""],
    ],
    ids=["label-out", "verify-out", "dot-labeling"],
)
def test_empty_path_exits_usage(tmp_path, capsys, argv):
    # An empty path names no file; it must not fall back to stdout or to no
    # labeling.
    files = write_union_files(tmp_path, capsys)
    code, out, err = run_cli(capsys, *[arg.format(**files) for arg in argv])
    assert code == 64
    assert out == ""
    assert err.startswith("error: ")


def test_label_past_vertex_bound_exits_usage(tmp_path):
    proc = run_module("-m", "oddgraceful", "label", "--cycle", "4", "--path", str(10**12),
                      cwd=tmp_path)
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert proc.stderr == "error: cycle + path order must be <= 4194304, got 1000000000004\n"


def test_dot_header_past_vertex_bound_exits_usage(tmp_path, capsys):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text(f"graph {MAX_VERTICES + 1}\n0 1\n")
    code, out, err = run_cli(capsys, "dot", str(graph_file))
    assert (code, out, err) == (64, "", "error: vertex count 4194305 exceeds the maximum 4194304\n")


# Exit codes of the README table, per command; a rejected command line also
# exits 64, raised by argparse as SystemExit.
README_EXIT_CODES = {"verify": {0, 1, 64}, "dot": {0, 64}, "search": {0, 2, 3, 64}}


@st.composite
def cli_inputs(draw):
    """The bytes of a graph file and a labeling file: a small graph with a
    labeling document of about its size, or fuzzed text for either file,
    sometimes with a 0xff byte, which is never UTF-8, spliced in."""
    g = draw(small_graphs())
    n, q = g.vertex_count, g.edge_count
    label = st.integers(-2, 2 * q + 1)
    labels = st.one_of(st.lists(label, min_size=n, max_size=n), st.lists(label, max_size=n + 1))
    doc = {"kind": "labeling", "family": None, "edge_count": q, "labels": draw(labels),
           "weights": [1] * q, "ok": True}
    graph_text, labeling_text = emit_edge_list(g), json.dumps(doc)
    if draw(st.booleans()):
        graph_text = draw(st.lists(EDGE_LIST_LINES, max_size=8).map("\n".join))
    if draw(st.booleans()):
        labeling_text = draw(st.one_of(labeling_texts(), st.text(max_size=30)))
    files = []
    for data in (graph_text.encode(), labeling_text.encode()):
        if draw(st.integers(0, 4)) == 0:
            at = draw(st.integers(0, len(data)))
            data = data[:at] + b"\xff" + data[at:]
        files.append(data)
    return tuple(files)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(cli_inputs(), st.sampled_from(sorted(README_EXIT_CODES)))
def test_cli_exit_codes_follow_readme_table(tmp_path, inputs, command):
    graph_file, labeling_file = tmp_path / "graph.txt", tmp_path / "labeling.json"
    graph_file.write_bytes(inputs[0])
    labeling_file.write_bytes(inputs[1])
    argv = {
        "verify": ["verify", str(graph_file), str(labeling_file)],
        "dot": ["dot", str(graph_file), "--labeling", str(labeling_file)],
        "search": ["search", str(graph_file), "--budget", "50"],
    }[command]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            assert exc.code == 64
            return
    assert code in README_EXIT_CODES[command]
