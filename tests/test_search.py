import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oddgraceful import (
    FamilySpec,
    Graph,
    Labeling,
    SearchConfig,
    SearchVerdict,
    ValidationError,
    complement_labeling,
    make_cycle,
    make_path,
    make_union,
    parity_precheck,
    search_odd_graceful,
    verify_odd_graceful,
)
from oddgraceful.search import _two_color

from reference_pruned_search import _enumerate as reference_enumerate
from reference_search import reference_labelings
from strategies import small_graphs


def is_genuine_odd_cycle(g, cycle):
    if len(cycle) % 2 == 0 or len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    edge_set = {frozenset(e) for e in g.edges}
    closed = list(cycle) + [cycle[0]]
    return all(frozenset((a, b)) in edge_set for a, b in zip(closed, closed[1:]))


def test_precheck_finds_odd_cycle_in_c5():
    coloring, cycle = parity_precheck(make_cycle(5))
    assert coloring is None
    assert len(cycle) == 5
    assert is_genuine_odd_cycle(make_cycle(5), cycle)


def test_precheck_two_colors_c6():
    coloring, cycle = parity_precheck(make_cycle(6))
    assert cycle is None
    g = make_cycle(6)
    assert len(coloring) == 6
    for a, b in g.edges:
        assert coloring[a] != coloring[b]


def test_precheck_union_is_bipartite():
    coloring, cycle = parity_precheck(make_union(FamilySpec(8, 7)))
    assert cycle is None
    assert len(coloring) == 15


def test_triangle_has_no_labeling():
    out = search_odd_graceful(make_cycle(3))
    assert out.verdict is SearchVerdict.EXHAUSTED_NOT_FOUND
    assert out.odd_cycle_witness is not None


def test_triangle_full_search_agrees_with_precheck():
    assert reference_labelings(make_cycle(3)) == []


def test_square_is_found_with_full_weight_set():
    g = make_cycle(4)
    out = search_odd_graceful(g)
    assert out.verdict is SearchVerdict.FOUND
    report = verify_odd_graceful(g, out.labeling)
    assert report.ok
    labels = out.labeling.labels
    weights = sorted(abs(labels[a] - labels[b]) for a, b in g.edges)
    assert weights == [1, 3, 5, 7]


def test_path_is_found():
    g = make_path(5)
    out = search_odd_graceful(g)
    assert out.verdict is SearchVerdict.FOUND
    assert verify_odd_graceful(g, out.labeling).ok


def test_empty_graph_is_trivially_found():
    out = search_odd_graceful(Graph(0))
    assert out.verdict is SearchVerdict.FOUND
    assert out.labeling == Labeling(())


def test_single_vertex_has_no_labels_to_use():
    # Zero edges leave an empty label range, so the space is empty.
    out = search_odd_graceful(make_path(1))
    assert out.verdict is SearchVerdict.EXHAUSTED_NOT_FOUND


def test_first_found_is_lexicographically_least():
    g = make_union(FamilySpec(4, 3))
    first = search_odd_graceful(g).labeling
    assert first == reference_labelings(g)[0]


def test_first_found_same_with_and_without_precheck():
    # The parity filter only prunes; it must not change the feasible set. The
    # unpruned search of version 0.7.0 found this same first hit.
    out = search_odd_graceful(make_union(FamilySpec(6, 3)))
    assert out.labeling == Labeling((0, 1, 4, 9, 2, 15, 3, 14, 5))
    assert out.nodes_explored == 38


def test_find_all_on_union_contains_constructed_labeling():
    g = make_union(FamilySpec(4, 3))
    out = search_odd_graceful(g, SearchConfig(find_all=True))
    reference = reference_labelings(g)
    assert out.verdict is SearchVerdict.FOUND
    assert Labeling((0, 11, 2, 7, 1, 4, 3)) in reference
    assert out.solutions_found == len(reference)
    assert out.solutions_found % 2 == 0


def test_find_all_solutions_closed_under_complement():
    g = make_union(FamilySpec(4, 3))
    reference = reference_labelings(g)
    assert search_odd_graceful(g, SearchConfig(find_all=True)).solutions_found == len(reference)
    pool = set(reference)
    for labeling in reference:
        mirrored = complement_labeling(labeling, g.edge_count)
        assert mirrored in pool
        assert mirrored != labeling


def test_disconnected_graph_with_both_polarities():
    # Two disjoint single edges: weights {1, 3} must split across components.
    g = Graph(4, ((0, 1), (2, 3)))
    out = search_odd_graceful(g, SearchConfig(find_all=True))
    assert out.verdict is SearchVerdict.FOUND
    assert verify_odd_graceful(g, out.labeling).ok
    assert out.solutions_found % 2 == 0


def test_budget_exceeded_on_tiny_budget():
    out = search_odd_graceful(make_union(FamilySpec(4, 3)), SearchConfig(node_budget=3))
    assert out.verdict is SearchVerdict.BUDGET_EXCEEDED
    assert out.nodes_explored == 3


@pytest.mark.parametrize(
    "budget, message",
    [
        (-1, "node budget must be non-negative, got -1"),
        # The node count never equals a float budget, so it would cut nothing.
        (2.5, "node budget must be an integer, got 2.5"),
        ("5", "node budget must be an integer, got '5'"),
    ],
    ids=["negative", "float", "string"],
)
def test_negative_budget_is_rejected(budget, message):
    with pytest.raises(ValidationError, match=message):
        SearchConfig(node_budget=budget)


def test_zero_budget_cuts_before_the_first_node():
    out = search_odd_graceful(make_path(3), SearchConfig(node_budget=0))
    assert out.verdict is SearchVerdict.BUDGET_EXCEEDED
    assert out.nodes_explored == 0


def test_budget_is_monotone():
    g = make_union(FamilySpec(4, 3))
    reference = search_odd_graceful(g)
    needed = reference.nodes_explored
    previous_found = False
    for budget in [1, needed - 1, needed, needed + 10, None]:
        out = search_odd_graceful(g, SearchConfig(node_budget=budget))
        found = out.verdict is SearchVerdict.FOUND
        assert not (previous_found and not found)
        previous_found = found
        if found:
            assert out.labeling == reference.labeling
    assert previous_found


def test_find_all_under_budget_reports_partial_count():
    g = make_union(FamilySpec(4, 3))
    total = search_odd_graceful(g, SearchConfig(find_all=True))
    cut = search_odd_graceful(
        g, SearchConfig(find_all=True, node_budget=total.nodes_explored // 2)
    )
    assert cut.verdict is SearchVerdict.BUDGET_EXCEEDED
    assert 0 < cut.solutions_found <= total.solutions_found


@pytest.mark.parametrize(
    "g, solutions, nodes, labels",
    [
        (make_union(FamilySpec(4, 2)), 192, 1772, (0, 3, 2, 9, 1, 6)),
        (make_union(FamilySpec(4, 3)), 960, 10440, (0, 3, 2, 11, 6, 1, 8)),
        (make_union(FamilySpec(4, 4)), 4992, 59772, (0, 3, 2, 13, 1, 10, 5, 12)),
        (make_union(FamilySpec(4, 5)), 24896, 352160, (0, 3, 2, 15, 1, 12, 5, 14, 9)),
        (make_union(FamilySpec(6, 2)), 6096, 35512, (0, 1, 4, 9, 2, 13, 3, 12)),
        (make_union(FamilySpec(6, 3)), 21792, 258364, (0, 1, 4, 9, 2, 15, 3, 14, 5)),
        (make_union(FamilySpec(6, 4)), 128208, 1842240, (0, 1, 4, 9, 2, 17, 3, 16, 5, 14)),
        (make_union(FamilySpec(8, 2)), 117568, 1040264, (0, 1, 4, 11, 6, 15, 2, 17, 3, 14)),
        (make_cycle(8), 2880, 111532, (0, 1, 8, 3, 14, 5, 2, 15)),
        (make_path(8), 2232, 28144, (0, 13, 2, 1, 6, 3, 12, 5)),
        (make_path(9), 10752, 161788, (0, 15, 2, 1, 6, 3, 14, 5, 12)),
    ],
    ids=["U4-2", "U4-3", "U4-4", "U4-5", "U6-2", "U6-3", "U6-4", "U8-2", "C8", "P8", "P9"],
)
def test_find_all_pinned_counts(g, solutions, nodes, labels):
    # The paper's first step, C_m + P_n for small even m, counted instead of
    # labeled by hand. The counts are those of the per-label scan that the
    # candidate masks replaced (tests/reference_pruned_search.py).
    # union(4,7) gives 776 832 solutions in 14 440 672 nodes, too slow here.
    out = search_odd_graceful(g, SearchConfig(find_all=True))
    assert out.verdict is SearchVerdict.FOUND
    assert (out.solutions_found, out.nodes_explored) == (solutions, nodes)
    assert out.labeling == Labeling(labels)


def test_find_all_memory_does_not_grow_with_solutions():
    # Only the first of union(4,3)'s 960 solutions is kept as a Labeling.
    g = make_union(FamilySpec(4, 3))
    tracemalloc.start()
    try:
        out = search_odd_graceful(g, SearchConfig(find_all=True))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.solutions_found == 960
    assert peak < 16 * 1024


def test_c6_first_hit_pinned():
    out = search_odd_graceful(make_cycle(6))
    assert out.verdict is SearchVerdict.FOUND
    assert out.labeling == Labeling((0, 1, 4, 9, 2, 11))
    assert out.nodes_explored == 6


@pytest.mark.parametrize(
    "g, labels, nodes",
    [
        (make_path(2), (0, 1), 2),
        (make_path(3), (0, 3, 2), 4),
        (make_path(4), (0, 5, 2, 1), 9),
        (make_path(5), (0, 7, 2, 1, 4), 22),
        (make_path(6), (0, 9, 2, 1, 6, 3), 80),
        (make_path(7), (0, 11, 2, 1, 6, 3, 10), 292),
        (make_path(8), (0, 13, 2, 1, 6, 3, 12, 5), 1308),
        (make_cycle(4), (0, 3, 2, 7), 7),
        (make_cycle(8), (0, 1, 8, 3, 14, 5, 2, 15), 117),
    ],
    ids=["P2", "P3", "P4", "P5", "P6", "P7", "P8", "C4", "C8"],
)
def test_first_hit_pinned(g, labels, nodes):
    # The other criterion-6 graphs; C6 is test_c6_first_hit_pinned.
    out = search_odd_graceful(g)
    assert out.verdict is SearchVerdict.FOUND
    assert out.labeling == Labeling(labels)
    assert out.nodes_explored == nodes


# Vertex 4 is not its component's head (2 is) and has no earlier neighbour, so
# its first candidate parity comes from the head's label alone.
SPLIT_HEAD_GRAPH = Graph(7, ((0, 3), (3, 5), (1, 2), (4, 6), (2, 6)))


def test_split_head_graph_pinned():
    first = search_odd_graceful(SPLIT_HEAD_GRAPH)
    assert first.verdict is SearchVerdict.FOUND
    assert first.labeling == Labeling((0, 1, 4, 9, 8, 2, 3))
    assert first.nodes_explored == 55
    pruned = search_odd_graceful(SPLIT_HEAD_GRAPH, SearchConfig(find_all=True))
    assert (pruned.nodes_explored, pruned.solutions_found) == (10276, 432)
    reference = reference_labelings(SPLIT_HEAD_GRAPH)
    assert len(reference) == 432
    assert pruned.labeling == reference[0]


@settings(max_examples=60)
@given(small_graphs(max_vertices=8))
def test_two_color_head_is_smallest_vertex_of_component(g):
    coloring, head, odd_cycle = _two_color(g)
    assume(odd_cycle is None)
    root = list(range(g.vertex_count))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b in g.edges:
        ra, rb = find(a), find(b)
        root[max(ra, rb)] = min(ra, rb)
    assert head == [find(v) for v in range(g.vertex_count)]
    assert all(coloring[h] == 0 for h in head)
    # The search's inner loop relies on this to skip the even-weight test.
    assert all(coloring[a] != coloring[b] for a, b in g.edges)
    assert coloring == parity_precheck(g)[0]


def test_search_memory_is_linear_in_vertices_and_edges():
    # O(V + q): no candidate mask or other state is kept per depth. The
    # search traces about 1.8 MiB here; a mask cached per depth, 12 MiB or more.
    g = make_path(20_000)
    g.adjacency  # cached on the graph, which is the input, not search state
    tracemalloc.start()
    try:
        out = search_odd_graceful(g, SearchConfig(node_budget=2_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.verdict is SearchVerdict.BUDGET_EXCEEDED
    assert peak < 4 * 1024 * 1024


def test_deep_path_stops_at_budget():
    out = search_odd_graceful(make_path(1500), SearchConfig(node_budget=5000))
    assert out.verdict is SearchVerdict.BUDGET_EXCEEDED
    assert out.nodes_explored == 5000


def test_more_vertices_than_labels_exhausts_without_allocating():
    g = Graph(10**5, ((0, 1),))
    tracemalloc.start()
    try:
        out = search_odd_graceful(g, SearchConfig(find_all=True))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.verdict is SearchVerdict.EXHAUSTED_NOT_FOUND
    assert (out.nodes_explored, out.solutions_found) == (0, 0)
    assert out.odd_cycle_witness is None
    assert peak < 64 * 1024


@st.composite
def odd_cycle_graphs(draw):
    """A C3 or C5 plus extra vertices and edges, up to 6 vertices and 8 edges,
    with ids permuted and edge orientation and order random, so no drawn graph
    is filtered out."""
    k = draw(st.sampled_from([3, 5]))
    n = draw(st.integers(k, 6))
    cycle = [(i, (i + 1) % k) for i in range(k)]
    taken = {frozenset(e) for e in cycle}
    pool = [(a, b) for a in range(n) for b in range(a + 1, n) if frozenset((a, b)) not in taken]
    extra = draw(st.permutations(pool))[: draw(st.integers(0, 8 - k))]
    ids = draw(st.permutations(range(n)))
    edges = [(ids[b], ids[a]) if draw(st.booleans()) else (ids[a], ids[b]) for a, b in cycle + extra]
    return Graph(n, tuple(draw(st.permutations(edges))))


@settings(max_examples=40, deadline=None)
@given(odd_cycle_graphs())
def test_odd_cycle_graphs_never_have_labelings(g):
    _, odd_cycle = parity_precheck(g)
    assert odd_cycle is not None
    assert reference_labelings(g) == []


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_vertices=6))
def test_find_all_agrees_with_reference_enumerator(g):
    assume(g.edge_count <= 8)
    reference = reference_labelings(g)
    out = search_odd_graceful(g, SearchConfig(find_all=True))
    assert out.solutions_found == len(reference)
    if reference:
        assert out.verdict is SearchVerdict.FOUND
        assert out.labeling == reference[0]
    else:
        assert out.verdict is SearchVerdict.EXHAUSTED_NOT_FOUND
        assert out.labeling is None
    for labeling in reference:
        assert verify_odd_graceful(g, labeling).ok


def reference_pruned_outcome(g, cfg):
    """search_odd_graceful's verdict rules around the pruned reference loop."""
    coloring, head, odd_cycle = _two_color(g)
    if g.vertex_count > 2 * g.edge_count or odd_cycle is not None:
        return SearchVerdict.EXHAUSTED_NOT_FOUND, None, 0, 0
    first, nodes, sols, cut = reference_enumerate(g, cfg, coloring, head)
    if cut:
        verdict = SearchVerdict.BUDGET_EXCEEDED
    else:
        verdict = SearchVerdict.FOUND if sols else SearchVerdict.EXHAUSTED_NOT_FOUND
    return verdict, first, nodes, sols


@settings(max_examples=100, deadline=None)
@given(small_graphs(max_vertices=8), st.booleans(), st.none() | st.integers(0, 500))
# Vertex 1 has no earlier neighbour and does not head its component, so only
# the parity mask restricts it: 12 nodes, 4 solutions.
@example(Graph(3, [(0, 2), (2, 1)]), True, None)
# The centre has four earlier neighbours, so the pick loop drops candidates:
# 176 nodes, 48 solutions.
@example(Graph(5, [(i, 4) for i in range(4)]), True, None)
# q = 30, so weights reach limit +- 59, the top of the weight mask.
@example(Graph(31, [(0, i) for i in range(1, 31)]), False, 500)
# Thirty earlier neighbours, and a budget cut at 500 nodes.
@example(Graph(31, [(i, 30) for i in range(30)]), True, 500)
def test_search_matches_pruned_reference(g, find_all, budget):
    # nodes_explored is in every search report, so it must not change either.
    # Unbudgeted, a dense bipartite graph such as K4,4 runs for minutes.
    assume(budget is not None or g.edge_count <= 10)
    cfg = SearchConfig(node_budget=budget, find_all=find_all)
    out = search_odd_graceful(g, cfg)
    got = (out.verdict, out.labeling, out.nodes_explored, out.solutions_found)
    assert got == reference_pruned_outcome(g, cfg)


@settings(max_examples=25, deadline=None)
@given(small_graphs(max_vertices=5, min_vertices=1))
def test_exhaustive_counts_are_even(g):
    assume(g.edge_count >= 1)
    out = search_odd_graceful(g, SearchConfig(find_all=True))
    assert out.verdict is not SearchVerdict.BUDGET_EXCEEDED
    assert out.solutions_found % 2 == 0


@settings(max_examples=25, deadline=None)
@given(small_graphs(max_vertices=5), st.integers(1, 2000))
def test_found_labelings_always_verify(g, budget):
    out = search_odd_graceful(g, SearchConfig(node_budget=budget))
    if out.labeling is not None:
        assert verify_odd_graceful(g, out.labeling).ok


def test_construction_and_oracle_agree_on_small_instances():
    # Everywhere the constructor claims validity and the search can finish,
    # the search must find something too (never exhausted-not-found).
    from oddgraceful import min_path_order

    for m in (4, 6, 8):
        lo = min_path_order(m)
        for n in range(lo, lo + 3):
            g = make_union(FamilySpec(m, n))
            out = search_odd_graceful(g)
            assert out.verdict is SearchVerdict.FOUND, (m, n)
            assert verify_odd_graceful(g, out.labeling).ok, (m, n)
