import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddgraceful import (
    DuplicateEdgeWeight,
    DuplicateVertexLabel,
    EdgeWeightEven,
    EdgeWeightSetMismatch,
    FamilySpec,
    Graph,
    Labeling,
    ValidationError,
    VertexLabelOutOfRange,
    complement_labeling,
    emit_report,
    induced_weights,
    label_algorithmic,
    label_closed_form,
    label_short_path,
    make_path,
    make_union,
    verify_odd_graceful,
)
from oddgraceful.construct import BoundPolicy
from oddgraceful.labeling import _family_chunks

from reference_verifier import reference_verify_odd_graceful
from strategies import family_specs, small_graphs

# Verified fixture for the smallest family instance: cycle labels then path labels.
C4_P3_LABELS = Labeling((0, 11, 2, 7, 1, 4, 3))


def test_edge_weights_single_edge():
    g = make_path(2)
    assert induced_weights(g, Labeling((0, 1))) == (1,)


def test_edge_weights_family_instance():
    g = make_union(FamilySpec(4, 3))
    assert induced_weights(g, C4_P3_LABELS) == (11, 9, 5, 7, 3, 1)


def test_edge_weights_order_matches_edges():
    # Weight i belongs to edge i, whichever way round the edge is stored.
    g = Graph(4, ((0, 1), (2, 1), (3, 0)))
    assert induced_weights(g, Labeling((0, 7, 2, 3))) == (7, 5, 3)


def test_edge_weight_zero_on_constant_edge():
    g = make_path(2)
    assert induced_weights(g, Labeling((5, 5))) == (0,)
    report = verify_odd_graceful(g, Labeling((5, 5)))
    assert not report.ok


def test_edge_weights_requires_total_labeling():
    message = r"^labeling covers 2 vertices, graph has 3$"
    with pytest.raises(ValidationError, match=message):
        induced_weights(make_path(3), Labeling((0, 1)))
    with pytest.raises(ValidationError, match=message):
        verify_odd_graceful(make_path(3), Labeling((0, 1)))


@pytest.mark.parametrize("bad", [0.0, "0", None])
def test_verify_rejects_non_integer_label(bad):
    # Refused with the package's error naming the vertex, not a TypeError
    # from the scan or the weight subtraction; the length check comes first.
    with pytest.raises(ValidationError, match=r"^label of vertex 1 must be an integer"):
        verify_odd_graceful(make_path(3), Labeling((0, bad, 3)))
    with pytest.raises(ValidationError, match=r"^labeling covers 2 vertices, graph has 3$"):
        verify_odd_graceful(make_path(3), Labeling((0, bad)))


def test_verify_accepts_bool_labels():
    # bool fails the type() pass, so it reaches index(), which takes it and
    # gives the int that a failing report names.
    assert verify_odd_graceful(make_path(2), Labeling((False, True))).ok
    report = verify_odd_graceful(make_path(2), Labeling((True, True)))
    assert '"label": 1,' in emit_report(report)


@st.composite
def family_labelings(draw):
    """A union with even cycle order 4..12, so both residues mod 4, and path
    order 2..20, with free labels drawn from [-2, 2q+1]."""
    spec = FamilySpec(draw(st.sampled_from(range(4, 13, 2))), draw(st.integers(2, 20)))
    n = spec.cycle_order + spec.path_order
    labels = draw(st.lists(st.integers(-2, 2 * spec.edge_count + 1), min_size=n, max_size=n))
    return spec, Labeling(tuple(labels))


@settings(max_examples=300, deadline=None)
@given(family_labelings())
@example((FamilySpec(4, 2), Labeling((0, 0, 5, 7, -2, 9))))
@example((FamilySpec(4, 2), label_short_path(FamilySpec(4, 2))))
@example((FamilySpec(6, 3), label_closed_form(FamilySpec(6, 3))))
@example((FamilySpec(8, 7), label_closed_form(FamilySpec(8, 7))))
@example((FamilySpec(10, 7), label_algorithmic(FamilySpec(10, 7))))
@example((FamilySpec(12, 6), label_short_path(FamilySpec(12, 6))))
def test_family_weights_match_the_graph(case):
    # The family weights are made from the labels alone, a chunk at a time,
    # each from its chunk and the label carried from the one before; joined,
    # they must be the weights of make_union's edges in its edge order, at
    # every chunk size around the closing edge m-1 and the vertex count, and
    # labels of the wrong length must fail with the graph's message once
    # they run out.
    spec, labeling = case
    m, n = spec.cycle_order, spec.cycle_order + spec.path_order
    g = make_union(spec)
    expected_weights = induced_weights(g, labeling)
    for size in (1, 2, 3, m - 1, m, m + 1, n - 1, n, n + 1):
        chunks = list(_family_chunks(spec, iter(labeling.labels), size))
        assert all(0 < len(labels) <= size for labels, _ in chunks)
        assert tuple(x for labels, _ in chunks for x in labels) == labeling.labels
        assert tuple(w for _, weights in chunks for w in weights) == expected_weights
    for wrong in (Labeling(labeling.labels[:-1]), Labeling(labeling.labels + (0,))):
        message = rf"^labeling covers {len(wrong.labels)} vertices, graph has {g.vertex_count}$"
        with pytest.raises(ValidationError, match=message) as expected:
            induced_weights(g, wrong)
        for size in (1, m, n):
            with pytest.raises(ValidationError, match=message) as got:
                list(_family_chunks(spec, iter(wrong.labels), size))
            assert str(got.value) == str(expected.value)


def test_verify_accepts_family_fixture():
    report = verify_odd_graceful(make_union(FamilySpec(4, 3)), C4_P3_LABELS)
    assert report.ok
    assert report.violations == ()


def test_verify_accepts_two_vertex_path():
    assert verify_odd_graceful(make_path(2), Labeling((0, 1))).ok


def test_duplicate_label_below_minimum_path_order():
    # The (10, 6) construction collides on label 8 and nothing else.
    spec = FamilySpec(10, 6)
    labeling = label_closed_form(spec, BoundPolicy.FORCE)
    report = verify_odd_graceful(make_union(spec), labeling)
    assert not report.ok
    assert report.violations == (DuplicateVertexLabel(8, (8, 15)),)


def test_out_of_range_label_reported_per_vertex():
    g = make_path(2)  # q = 1 so labels must be 0 or 1
    report = verify_odd_graceful(g, Labeling((0, 2)))
    assert VertexLabelOutOfRange(1, 2) in report.violations


def test_negative_label_is_out_of_range():
    report = verify_odd_graceful(make_path(2), Labeling((-1, 0)))
    assert VertexLabelOutOfRange(0, -1) in report.violations


def test_even_weight_reported_with_edge():
    g = make_path(3)
    report = verify_odd_graceful(g, Labeling((0, 2, 3)))
    assert EdgeWeightEven((0, 1), 2) in report.violations


def test_duplicate_weight_reported_with_edges():
    g = make_path(3)  # q = 2, weights must be {1, 3}
    report = verify_odd_graceful(g, Labeling((1, 0, 1)))
    kinds = {type(v) for v in report.violations}
    assert DuplicateVertexLabel in kinds  # label 1 reused
    assert DuplicateEdgeWeight in kinds
    dup = next(v for v in report.violations if isinstance(v, DuplicateEdgeWeight))
    assert dup.weight == 1
    assert dup.edges == ((0, 1), (1, 2))


def test_weight_set_mismatch_lists_missing_and_extra():
    g = make_path(3)
    report = verify_odd_graceful(g, Labeling((0, 2, 3)))
    mismatch = next(v for v in report.violations if isinstance(v, EdgeWeightSetMismatch))
    assert mismatch.missing == (3,)
    assert mismatch.extra == (2,)


def test_all_violations_enumerated_not_just_first():
    g = make_union(FamilySpec(4, 3))
    # Duplicate label, even weights, and a set mismatch at once.
    report = verify_odd_graceful(g, Labeling((0, 11, 2, 7, 0, 4, 3)))
    kinds = {type(v) for v in report.violations}
    assert DuplicateVertexLabel in kinds
    assert len(report.violations) >= 2


def test_empty_graph_verifies():
    assert verify_odd_graceful(Graph(0), Labeling(())).ok


def test_single_vertex_cannot_be_labeled():
    # With no edges the admissible label range is empty.
    report = verify_odd_graceful(make_path(1), Labeling((0,)))
    assert not report.ok
    assert VertexLabelOutOfRange(0, 0) in report.violations


def test_verifier_is_pure():
    g = make_union(FamilySpec(4, 3))
    assert verify_odd_graceful(g, C4_P3_LABELS) == verify_odd_graceful(g, C4_P3_LABELS)


def test_report_consistency_enforced():
    # ok is derived from the violations, so the two cannot disagree.
    from oddgraceful import VerifyReport

    assert VerifyReport((DuplicateVertexLabel(0, (0, 1)),)).ok is False
    assert VerifyReport(()).ok is True


@settings(max_examples=60)
@given(family_specs())
def test_parity_law_on_accepted_labelings(spec):
    # Odd weights force opposite label parity across every edge.
    g = make_union(spec)
    labeling = label_closed_form(spec)
    assert verify_odd_graceful(g, labeling).ok
    for a, b in g.edges:
        assert (labeling.labels[a] + labeling.labels[b]) % 2 == 1


@settings(max_examples=60)
@given(family_specs())
def test_complement_closure(spec):
    g = make_union(spec)
    labeling = label_closed_form(spec)
    mirrored = complement_labeling(labeling, g.edge_count)
    assert verify_odd_graceful(g, mirrored).ok
    assert mirrored != labeling


@st.composite
def labeled_graphs(draw):
    """A small graph with labels drawn from [-2, 2q+1]: free, with forced
    repeats, or all equal."""
    g = draw(small_graphs())
    n = g.vertex_count
    labels = draw(st.lists(st.integers(-2, 2 * g.edge_count + 1), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["free", "repeats", "all-equal"]))
    if shape == "all-equal":
        labels = labels[:1] * n
    elif shape == "repeats" and n > 1:
        for _ in range(draw(st.integers(1, n))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            labels[i] = labels[j]
    return g, Labeling(tuple(labels))


@settings(max_examples=500, deadline=None)
@given(labeled_graphs())
@example((Graph(0), Labeling(())))
@example((Graph(1), Labeling((0,))))
@example((Graph(3), Labeling((0, 0, 5))))
@example((make_union(FamilySpec(4, 3)), C4_P3_LABELS))
@example((make_path(5), Labeling((0, 0, 9, 6, 9))))
@example((make_path(3), Labeling((-1, 2, -1))))
@example((make_path(3), Labeling((5, 0, 5))))
@example((make_path(5), Labeling((0, 2, 11, 1, 9))))
@example((Graph(1), Labeling((-1,))))
@example((make_union(FamilySpec(4, 3)), Labeling((3,) * 7)))
# An even weight past 2q-1, repeated; one in-range even weight three times,
# with 1, 3 and 5 missing and 2 extra.
@example((make_path(3), Labeling((0, 6, 0))))
@example((make_path(4), Labeling((0, 2, 0, 2))))
def test_verifier_matches_reference(case):
    # The reference is the 0.3.0 verifier; equality covers violation order.
    g, labeling = case
    assert verify_odd_graceful(g, labeling) == reference_verify_odd_graceful(g, labeling)


def test_failing_verify_peak_memory():
    # One swap of opposite-parity path labels at q = 20 000 gives a handful
    # of violations. Grouping every label and every weight into lists, as
    # 0.3.0 did, peaked at 11.8 MiB here.
    spec = FamilySpec(40, 19_961)
    g = make_union(spec)
    labels = list(label_closed_form(spec).labels)
    a = 40 + 5_000
    b = next(v for v in range(40 + 12_000, len(labels) - 1) if (labels[v] - labels[a]) % 2)
    labels[a], labels[b] = labels[b], labels[a]
    labeling = Labeling(tuple(labels))
    tracemalloc.start()
    try:
        report = verify_odd_graceful(g, labeling)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.ok
    assert report == reference_verify_odd_graceful(g, labeling)
    assert peak < 8 * 2**20


def test_failing_verify_costs_what_passing_does():
    # The verdict and the failure detail come from the same byte marks, so a
    # failing labeling with a few bad edges allocates about what a valid one
    # does. Sets of every label and weight and a Counter of the weights
    # peaked at 6.3 times the passing peak here.
    spec = FamilySpec(40, 19_961)
    g = make_union(spec)
    good = label_closed_form(spec)
    labels = list(good.labels)
    a = 40 + 5_000
    b = next(v for v in range(40 + 12_000, len(labels) - 1) if (labels[v] - labels[a]) % 2)
    labels[a], labels[b] = labels[b], labels[a]
    peaks = []
    for labeling in (good, Labeling(tuple(labels))):
        tracemalloc.start()
        try:
            report = verify_odd_graceful(g, labeling)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.ok == (labeling is good)
    assert peaks[1] <= 1.1 * peaks[0]
