"""Hypothesis strategies shared by the test modules."""

import json

from hypothesis import strategies as st

from oddgraceful import FamilySpec, Graph, min_path_order


@st.composite
def small_graphs(draw, max_vertices=8, min_vertices=0):
    """Arbitrary simple graphs with random edge orientation and order."""
    n = draw(st.integers(min_vertices, max_vertices))
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    edges = []
    for a, b in chosen:
        if draw(st.booleans()):
            a, b = b, a
        edges.append((a, b))
    return Graph(n, tuple(edges))


@st.composite
def family_specs(draw, max_cycle=20, extra_path=8, below_bound=False):
    """Cycle/path pairs, by default at or above the minimum path order."""
    m = draw(st.sampled_from(range(4, max_cycle + 1, 2)))
    lo = min_path_order(m)
    if below_bound:
        n = draw(st.integers(2, max(2, lo - 1)))
    else:
        n = draw(st.integers(lo, lo + extra_path))
    return FamilySpec(m, n)


# One edge-list line: an edge, a header with a small vertex count (`dot`
# writes a line per declared vertex), or noise.
EDGE_LIST_LINES = st.one_of(
    st.tuples(st.integers(-2, 9), st.integers(-2, 9)).map(lambda e: f"{e[0]} {e[1]}"),
    st.integers(-2, 12).map(lambda n: f"graph {n}"),
    st.text(alphabet="0123456789 -#graph\t.x", max_size=12),
    st.text(max_size=12),
)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def labeling_texts(draw):
    """A valid P2 labeling document with up to three fields dropped or replaced."""
    doc = {"kind": "labeling", "family": None, "edge_count": 1, "labels": [0, 1],
           "weights": [1], "ok": True}
    keys = st.sampled_from([*doc, "cycle_order"])
    for key in draw(st.lists(keys, max_size=3)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(JSON_VALUES)
    return json.dumps(doc)
