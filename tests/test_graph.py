from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oddgraceful import (
    FamilySpec,
    Graph,
    ValidationError,
    make_cycle,
    make_path,
    make_union,
    parse_edge_list,
)
from oddgraceful.graph import MAX_VERTICES
from oddgraceful.search import _two_color

from reference_graph import reference_validate


def test_make_path_single_vertex():
    g = make_path(1)
    assert g.vertex_count == 1
    assert g.edges == ()


def test_make_path_one_edge():
    assert make_path(2).edges == ((0, 1),)


def test_make_path_five():
    assert make_path(5).edges == ((0, 1), (1, 2), (2, 3), (3, 4))


@pytest.mark.parametrize("length", [0, 2.0, "2"])
def test_make_path_rejects_zero(length):
    # A float or a string length raises the package's error, as a short one does.
    with pytest.raises(ValidationError):
        make_path(length)


def test_make_cycle_triangle():
    assert make_cycle(3).edges == ((0, 1), (1, 2), (2, 0))


@pytest.mark.parametrize("length", [4, 10])
def test_make_cycle_counts(length):
    g = make_cycle(length)
    assert g.vertex_count == length
    assert g.edge_count == length


@pytest.mark.parametrize("length", [2, 4.0, "4"])
def test_make_cycle_rejects_small(length):
    with pytest.raises(ValidationError):
        make_cycle(length)


@pytest.mark.parametrize(
    "m, n, vertices, edges",
    [(4, 3, 7, 6), (8, 7, 15, 14), (6, 5, 11, 10)],
)
def test_make_union_counts(m, n, vertices, edges):
    g = make_union(FamilySpec(m, n))
    assert g.vertex_count == vertices
    assert g.edge_count == edges
    assert g.edge_count == FamilySpec(m, n).edge_count


def test_make_union_layout():
    # Cycle edges first in ring order, then the path chain.
    g = make_union(FamilySpec(4, 3))
    assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6))


def test_union_components_recover_family():
    g = make_union(FamilySpec(8, 5))
    _, head, _ = _two_color(g)
    assert Counter(head) == {0: 8, 8: 5}
    cycle = [v for v in range(g.vertex_count) if head[v] == 0]
    path = [v for v in range(g.vertex_count) if head[v] == 8]
    cycle_degrees = sorted(len(g.adjacency[v]) for v in cycle)
    path_degrees = sorted(len(g.adjacency[v]) for v in path)
    assert cycle_degrees == [2] * 8
    assert path_degrees == [1, 1, 2, 2, 2]


def test_builders_are_deterministic():
    spec = FamilySpec(10, 9)
    assert make_union(spec) == make_union(spec)
    assert make_cycle(6) == make_cycle(6)


@given(st.integers(4, 30).filter(lambda m: m % 2 == 0), st.integers(2, 30))
def test_union_edge_count_formula(m, n):
    assert make_union(FamilySpec(m, n)).edge_count == m + n - 1


@pytest.mark.parametrize(
    "m, n", [(3, 5), (2, 5), (7, 4), (4, 1), (4, 0), (4.0, 3), (4, 3.0), ("4", 3), (4, 2.5)]
)
def test_family_spec_rejects_bad_orders(m, n):
    with pytest.raises(ValidationError):
        FamilySpec(m, n)


def test_family_spec_derived_quantities():
    spec = FamilySpec(8, 7)
    assert spec.edge_count == 14


def test_family_spec_vertex_bound():
    # Only specs are built here, never their graphs.
    assert FamilySpec(4, MAX_VERTICES - 4).edge_count == MAX_VERTICES - 1
    for m, n in [(4, MAX_VERTICES - 3), (4, 10**12), (10**12, 2)]:
        with pytest.raises(ValidationError, match=f"must be <= {MAX_VERTICES}"):
            FamilySpec(m, n)


def test_graph_vertex_bound():
    # An edge-less Graph allocates nothing per vertex until adjacency is read.
    assert Graph(MAX_VERTICES).vertex_count == MAX_VERTICES
    for n in (MAX_VERTICES + 1, 10**12):
        with pytest.raises(ValidationError, match=f"vertex count {n} exceeds the maximum"):
            Graph(n, ((0, 1),))


def test_graph_rejects_self_loop():
    with pytest.raises(ValidationError):
        Graph(3, ((0, 0),))


def test_graph_rejects_duplicate_edge_either_orientation():
    with pytest.raises(ValidationError):
        Graph(3, ((0, 1), (1, 0)))


def test_graph_rejects_endpoint_out_of_range():
    with pytest.raises(ValidationError):
        Graph(2, ((0, 2),))
    with pytest.raises(ValidationError):
        Graph(2, ((-1, 0),))


@pytest.mark.parametrize("n", [-1, 3.0, 2.5, "3"])
def test_graph_rejects_negative_vertex_count(n):
    # A float count would be written as a "graph 3.0" header, which
    # parse_edge_list rejects.
    with pytest.raises(ValidationError):
        Graph(n, ())


def test_graph_is_immutable():
    g = make_path(3)
    with pytest.raises(AttributeError):
        g.vertex_count = 5


def test_graph_hash_and_repr():
    # Built through Graph(...), the parser and a builder, one graph is one set
    # element; its repr rebuilds it.
    g = make_path(3)
    assert len({Graph(3, ((0, 1), (1, 2))), parse_edge_list("0 1\n1 2\n"), g}) == 1
    assert eval(repr(g), {"Graph": Graph}) == g


def test_adjacency():
    g = make_cycle(4)
    assert g.adjacency == ((1, 3), (0, 2), (1, 3), (2, 0))
    assert len(g.adjacency[0]) == 2


def test_graph_range_check_precedes_duplicate_keys():
    # (0, 5) is out of range for 3 vertices and must be reported as such, never
    # as a duplicate of (1, 2): an int pair key a*n+b, as tests/reference_graph.py
    # keeps, would collide here (1*3+2 == 0*3+5).
    with pytest.raises(ValidationError, match=r"^edge \(0, 5\) has an endpoint outside 0\.\.2$"):
        Graph(3, ((1, 2), (0, 5)))


@pytest.mark.parametrize(
    "vertex_count, edges, message",
    [
        (4, ((0, 1), (2, 2), (1, 0), (0, 9)), "self-loop at vertex 2"),
        (4, ((0, 1), (1, 0), (2, 2)), "duplicate edge (1, 0)"),
        (4, ((0, 1), (-1, 3), (3, 3), (1, 0)), "edge (-1, 3) has an endpoint outside 0..3"),
        (4, ((3, 2), (2, 3)), "duplicate edge (2, 3)"),
        (5, ((0, 1), (1, 2), (2, 1), (7, 7)), "duplicate edge (2, 1)"),
        (3, ((0, 1), (4, 4)), "edge (4, 4) has an endpoint outside 0..2"),
    ],
)
def test_graph_first_fault_in_edge_order_wins(vertex_count, edges, message):
    with pytest.raises(ValidationError) as exc_info:
        Graph(vertex_count, edges)
    assert str(exc_info.value) == message


@st.composite
def raw_edge_lists(draw):
    """A vertex count 0..6 and an edge list of in-range non-loop edges, with
    up to three faults put in at random places: a repeat of an edge in either
    orientation, a self-loop, or an edge with ids anywhere in -2..n+2."""
    n = draw(st.integers(0, 6))
    ids = st.integers(-2, n + 2)
    edges = []
    if n > 1:
        edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        edges = draw(st.lists(edge, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(("repeat", "self-loop", "any")))
        if fault == "repeat" and edges:
            a, b = draw(st.sampled_from(edges))
            extra = (b, a) if draw(st.booleans()) else (a, b)
        elif fault == "self-loop":
            v = draw(ids)
            extra = (v, v)
        else:
            extra = (draw(ids), draw(ids))
        edges.insert(draw(st.integers(0, len(edges))), extra)
    return n, tuple(edges)


@given(raw_edge_lists())
# Ids past the 64 bits of an array('q') column, first in either column or
# below -2**63, and both at once.
@example((3, ((0, 1), (2**63, 1))))
@example((3, ((1, 1), (0, 2**64))))
@example((4, ((0, 1), (1, 0), (-(2**63) - 1, 2))))
@example((3, ((0, 1), (2**70, 2**64))))
def test_graph_validation_matches_int_key_reference(case):
    # Graph must accept exactly what the int-key loop accepted, and otherwise
    # fail on the same first fault with the same message.
    n, edges = case
    try:
        reference_validate(n, edges)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as exc_info:
            Graph(n, edges)
        assert str(exc_info.value) == str(exc)
    else:
        assert Graph(n, edges).edges == edges


class _Id:
    """An int-like vertex id through __index__, as numpy integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_graph_coerces_other_edge_forms():
    expected = Graph(3, ((0, 1), (1, 2)))
    for edges in (
        [[0, 1], [1, 2]],
        [(0, 1), (1, 2)],
        ((False, True), (True, 2)),
        ((_Id(0), _Id(1)), (_Id(1), _Id(2))),
    ):
        g = Graph(3, edges)
        assert g == expected
        assert type(g.edges) is tuple
        assert {type(e) for e in g.edges} == {tuple}
        assert {type(v) for e in g.edges for v in e} == {int}


def test_sizes_are_stored_as_ints():
    # Sizes go through operator.index like endpoints: bools and other
    # __index__ ints are accepted and stored as the int they stand for.
    assert Graph(_Id(3), ((0, 1),)) == Graph(3, ((0, 1),))
    assert type(Graph(True).vertex_count) is int
    spec = FamilySpec(_Id(4), _Id(3))
    assert spec == FamilySpec(4, 3)
    assert {type(spec.cycle_order), type(spec.path_order)} == {int}


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1.7)],  # int() would truncate it to (0, 1)
        [("0", " 2 ")],  # int() would parse it as (0, 2)
        [(0, 1, 2)],
        [(0,)],
    ],
)
def test_graph_rejects_edges_that_are_not_integer_pairs(edges):
    with pytest.raises(ValidationError, match="^edges must be pairs of integer vertex ids"):
        Graph(3, edges)
