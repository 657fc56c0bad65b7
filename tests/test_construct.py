import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from oddgraceful import (
    DuplicateEdgeWeight,
    FamilySpec,
    Labeling,
    ValidationError,
    induced_weights,
    label_algorithmic,
    label_closed_form,
    label_short_path,
    make_union,
    min_path_order,
    verify_odd_graceful,
)
from oddgraceful.construct import BoundPolicy

from reference_construct import reference_algorithmic, reference_closed_form, reference_short_path
from strategies import family_specs

# Labelings derived independently by substituting q = m + n - 1 into the
# per-size reference formulas below; cross-checked by the verifier.
KNOWN_LABELINGS = {
    (4, 3): (0, 11, 2, 7, 1, 4, 3),
    (6, 3): (0, 15, 2, 13, 4, 7, 1, 6, 5),
    (8, 7): (0, 27, 2, 25, 4, 23, 6, 15, 1, 14, 3, 10, 5, 8, 7),
    (10, 7): (0, 31, 2, 29, 4, 27, 6, 25, 8, 15, 1, 14, 3, 12, 7, 10, 9),
}

# Odd-graceful labelings of every C_m + P_n with m <= 10 below the minimum path
# order, and of C12 + P2..P5, where the constructor does not apply. Each is the
# first hit of search_odd_graceful on make_union(FamilySpec(m, n)); only the
# verifier checks them here, so no search runs.
BELOW_MINIMUM_LABELINGS = {
    (4, 2): (0, 3, 2, 9, 1, 6),
    (6, 2): (0, 1, 4, 9, 2, 13, 3, 12),
    (8, 2): (0, 1, 4, 11, 6, 15, 2, 17, 3, 14),
    (8, 3): (0, 1, 4, 11, 6, 15, 2, 19, 3, 18, 7),
    (8, 4): (0, 1, 4, 11, 6, 15, 2, 21, 3, 20, 5, 16),
    (8, 5): (0, 1, 4, 11, 6, 15, 2, 23, 3, 22, 5, 20, 9),
    (8, 6): (0, 1, 4, 11, 6, 15, 2, 25, 3, 24, 5, 22, 7, 18),
    (10, 2): (0, 1, 4, 9, 18, 3, 20, 13, 2, 21, 6, 19),
    (10, 3): (0, 1, 4, 9, 20, 3, 22, 15, 2, 23, 6, 21, 12),
    (10, 4): (0, 1, 4, 9, 16, 3, 12, 23, 2, 25, 5, 24, 7, 22),
    (10, 5): (0, 1, 4, 9, 16, 25, 6, 17, 2, 27, 5, 26, 3, 20, 7),
    (10, 6): (0, 1, 4, 9, 16, 3, 12, 27, 2, 29, 7, 26, 5, 28, 11, 22),
    (12, 2): (0, 1, 4, 9, 16, 3, 24, 5, 22, 11, 2, 25, 6, 21),
    (12, 3): (0, 1, 4, 9, 16, 3, 12, 23, 6, 25, 2, 27, 5, 26, 11),
    (12, 4): (0, 1, 4, 9, 16, 3, 12, 23, 6, 27, 2, 29, 13, 28, 5, 24),
    (12, 5): (0, 1, 4, 9, 16, 3, 12, 23, 6, 29, 2, 31, 7, 26, 5, 30, 15),
}


def reference_small_cycle_labels(m, n):
    """Hand-derived formulas for the three smallest cycle sizes with a
    uniform general form; written independently of the constructor."""
    q = m + n - 1
    if m == 4:
        u = [0, 2 * q - 1, 2, 2 * q - 5]
        v = [i if i % 2 else 2 * q - i - 6 for i in range(1, n + 1)]
    elif m == 8:
        u = [0, 2 * q - 1, 2, 2 * q - 3, 4, 2 * q - 5, 6, 2 * q - 13]
        v = [
            i if i % 2 else (2 * q - 14 if i == 2 else 2 * q - i - 14)
            for i in range(1, n + 1)
        ]
    elif m == 10:
        u = [0, 2 * q - 1, 2, 2 * q - 3, 4, 2 * q - 5, 6, 2 * q - 7, 8, 2 * q - 17]
        v = [
            (i if i in (1, 3) else i + 2) if i % 2 else 2 * q - i - 16
            for i in range(1, n + 1)
        ]
    else:
        raise ValueError(m)
    return tuple(u + v)


@pytest.mark.parametrize(
    "m, expected",
    # 2**23 is past FamilySpec's vertex bound, which min_path_order does not apply.
    [(4, 3), (6, 3), (8, 7), (10, 7), (12, 11), (14, 11), (16, 15), (20, 19), (22, 19),
     (2**23, 2**23 - 1)],
)
def test_min_path_order(m, expected):
    assert min_path_order(m) == expected


@pytest.mark.parametrize("m", [3, 2, 0, -4, 7, 8.0, "8"])
def test_min_path_order_rejects_bad_cycles(m):
    with pytest.raises(ValidationError):
        min_path_order(m)


@pytest.mark.parametrize("m, n", sorted(KNOWN_LABELINGS))
def test_known_labelings_exact(m, n):
    labeling = label_closed_form(FamilySpec(m, n))
    assert labeling.labels == KNOWN_LABELINGS[(m, n)]


@pytest.mark.parametrize("m", [4, 8, 10])
@pytest.mark.parametrize("extra", range(6))
def test_closed_form_matches_small_cycle_references(m, extra):
    n = min_path_order(m) + extra
    labeling = label_closed_form(FamilySpec(m, n))
    assert labeling.labels == reference_small_cycle_labels(m, n)


def test_six_cycle_even_index_variant_agrees_only_at_two():
    # An alternative even-index path formula, 2q - 12 + i, coincides with the
    # implemented 2q - 8 - i at i = 2 and nowhere else; past that point it
    # breaks the weight set, so the general form is the one constructed.
    m, n = 6, 5
    q = m + n - 1
    assert 2 * q - 12 + 2 == 2 * q - 8 - 2
    variant = [0, 2 * q - 1, 2, 2 * q - 3, 4, 2 * q - 9]
    variant += [
        (i if i == 1 else i + 2) if i % 2 else 2 * q - 12 + i for i in range(1, n + 1)
    ]
    report = verify_odd_graceful(make_union(FamilySpec(m, n)), Labeling(tuple(variant)))
    assert not report.ok
    assert DuplicateEdgeWeight(5, ((7, 8), (9, 10))) in report.violations


@pytest.mark.parametrize("construct", [label_closed_form, label_algorithmic], ids=lambda f: f.__name__)
def test_enforce_rejects_below_minimum_and_names_it(construct):
    # Both forms reject the same fault the same way, as label_short_path does
    # for n > m: one error type, naming the minimum and the form that covers it.
    with pytest.raises(ValidationError) as exc_info:
        construct(FamilySpec(8, 6))
    assert "minimum 7" in str(exc_info.value)
    assert "label_short_path" in str(exc_info.value)


def test_force_emits_total_labeling_below_minimum():
    spec = FamilySpec(12, 2)
    labeling = label_closed_form(spec, BoundPolicy.FORCE)
    assert len(labeling.labels) == 14
    assert all(0 <= x < 2 * spec.edge_count for x in labeling.labels)


def test_below_minimum_unions_have_pinned_labelings():
    # With the constructed range n >= min_path_order(m), every n >= 2 is
    # odd graceful for m = 4, 6, 8, 10; C12 is settled for n <= 5.
    assert sorted(BELOW_MINIMUM_LABELINGS) == [
        (m, n) for m in (4, 6, 8, 10) for n in range(2, min_path_order(m))
    ] + [(12, n) for n in range(2, 6)]
    for (m, n), labels in BELOW_MINIMUM_LABELINGS.items():
        report = verify_odd_graceful(make_union(FamilySpec(m, n)), Labeling(labels))
        assert report.ok, ((m, n), report.violations)

def test_short_path_covers_every_path_up_to_the_cycle_order():
    for m in range(4, 121, 2):
        for n in range(2, m + 1):
            spec = FamilySpec(m, n)
            report = verify_odd_graceful(make_union(spec), label_short_path(spec))
            assert report.ok, ((m, n), report.violations)
        # One past the cycle order the path's label m meets the cycle's.
        with pytest.raises(ValidationError):
            label_short_path(FamilySpec(m, m + 1))


@st.composite
def short_path_specs(draw):
    """Even cycles past the sweep's sizes with a path no longer than the
    cycle; m + n stays within MAX_VERTICES because m <= 2^21."""
    m = 2 * draw(st.integers(2**14, 2**20))
    return FamilySpec(m, draw(st.integers(2, m)))


# Each example builds a graph of up to 4M vertices, so a failure is reported
# unshrunk; the sweep above finds the small ones.
@settings(max_examples=4, deadline=None, phases=[Phase.generate])
@given(short_path_specs())
def test_short_path_verifies_at_scale(spec):
    assert verify_odd_graceful(make_union(spec), label_short_path(spec)).ok


@pytest.mark.parametrize("m", range(4, 22, 2))
def test_boundary_is_sharp(m):
    # One below the minimum the construction always fails verification.
    n = min_path_order(m) - 1
    spec = FamilySpec(m, n)
    labeling = label_closed_form(spec, BoundPolicy.FORCE)
    assert not verify_odd_graceful(make_union(spec), labeling).ok


@pytest.mark.parametrize("m", [*range(4, 31, 2), 40, 42])
def test_constructors_match_the_per_vertex_references(m):
    # Every path order from 2 to 40 past the minimum, so the runs' breaks
    # (at i = k-2 and at the reserved weight) meet empty and one-element
    # ranges for both residues of m mod 4; FORCE below the minimum.
    for n in range(2, min_path_order(m) + 41):
        spec = FamilySpec(m, n)
        assert label_closed_form(spec, BoundPolicy.FORCE).labels == reference_closed_form(spec), n
        assert label_algorithmic(spec, BoundPolicy.FORCE).labels == reference_algorithmic(spec), n
        if n <= m:
            assert label_short_path(spec).labels == reference_short_path(spec), n


@settings(max_examples=80)
@given(family_specs(max_cycle=40, extra_path=12))
def test_methods_agree_and_verify(spec):
    closed = label_closed_form(spec)
    assert closed == label_algorithmic(spec)
    assert verify_odd_graceful(make_union(spec), closed).ok


@settings(max_examples=40)
@given(family_specs(max_cycle=16, below_bound=True))
def test_methods_agree_below_bound_too(spec):
    closed = label_closed_form(spec, BoundPolicy.FORCE)
    assert closed == label_algorithmic(spec, BoundPolicy.FORCE)


@pytest.mark.parametrize(
    "m, n, expected",
    [
        (4, 3, (11, 9, 5, 7)),
        (8, 7, (27, 25, 23, 21, 19, 17, 9, 15)),
        (10, 7, (31, 29, 27, 25, 23, 21, 19, 17, 7, 15)),
    ],
)
def test_cycle_edge_labels_examples(m, n, expected):
    spec = FamilySpec(m, n)
    assert induced_weights(make_union(spec), label_closed_form(spec))[:m] == expected


@settings(max_examples=60)
@given(family_specs())
def test_cycle_edge_labels_match_measured_weights(spec):
    # Cycle edges in ring order: the first m-2 take 2q-1, 2q-3, ..., the seam
    # edge 2q-3m+5 and the closing edge 2q-2m+3.
    m, q = spec.cycle_order, spec.edge_count
    expected = tuple(2 * q - (2 * i - 1) for i in range(1, m - 1))
    expected += (2 * q - 3 * m + 5, 2 * q - 2 * m + 3)
    measured = induced_weights(make_union(spec), label_closed_form(spec))
    assert measured[:m] == expected


@settings(max_examples=60)
@given(family_specs())
def test_weight_partition_between_cycle_and_path(spec):
    m, q = spec.cycle_order, spec.edge_count
    labeling = label_closed_form(spec)
    weights = induced_weights(make_union(spec), labeling)
    cycle_part = set(weights[:m])
    path_part = set(weights[m:])
    top_run = set(range(2 * q - 1, 2 * q - 2 * m + 2, -2))
    expected_cycle = top_run | {2 * q - 3 * m + 5}
    assert cycle_part == expected_cycle
    assert path_part == set(range(1, 2 * q, 2)) - expected_cycle


def test_construction_is_deterministic():
    spec = FamilySpec(14, 13)
    assert label_closed_form(spec) == label_closed_form(spec)
    assert label_algorithmic(spec) == label_algorithmic(spec)
