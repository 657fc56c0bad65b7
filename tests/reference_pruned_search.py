"""Reference for differential tests of the search oracle's node counts.

_enumerate is the depth-first core that oddgraceful.search had before its
candidate masks, copied verbatim: it scans every candidate label in Python,
with a next_label and a stride per depth, and marks and releases weights in
a bytearray. The search now picks each candidate from a bit mask instead;
this loop defines the labelings, node counts, solution counts and budget
cuts that it must give. Unlike tests/reference_search.py it prunes exactly
as the package does, so nodes_explored can be compared too."""

from oddgraceful.labeling import Labeling


def _enumerate(g, cfg, coloring, head):
    """Depth-first enumeration core: one loop over an explicit stack, where
    depth v labels vertex v and next_label[v] is the next candidate there.
    coloring and head come from _two_color.

    Returns (first_labeling, nodes, solution_count, budget_cut); a node is
    counted each time a candidate label survives all filters and is committed.
    Only the first solution becomes a Labeling; the rest are only counted.
    Requires vertex_count <= 2 * edge_count.
    """
    nv, limit = g.vertex_count, 2 * g.edge_count
    adj = g.adjacency
    earlier = [tuple(u for u in adj[v] if u < v) for v in range(nv)]
    # Within a component, labels after the head's follow its two-coloring.
    stride = [1 if head[v] == v else 2 for v in range(nv)]

    labels = [-1] * nv
    next_label = [0] * nv
    used_label = bytearray(limit)
    used_weight = bytearray(limit)
    budget = cfg.node_budget
    find_all = cfg.find_all

    nodes = 0
    sols = 0
    first: Labeling | None = None
    cut = False

    v = 0
    while v >= 0:
        if v == nv:
            sols += 1
            if first is None:
                first = Labeling(tuple(labels))
            if not find_all:
                break
        else:
            ev = earlier[v]
            step = stride[v]
            x = next_label[v]
            while x < limit:
                if not used_label[x]:
                    for u in ev:
                        w = x - labels[u]
                        if w < 0:
                            w = -w
                        # w is odd: u < v, so v is not its component's head,
                        # and x and labels[u] have the head label's parity
                        # flipped by their colors, which differ across an edge.
                        if used_weight[w]:
                            # Release the weights marked before neighbour u.
                            for t in ev:
                                if t == u:
                                    break
                                used_weight[abs(x - labels[t])] = 0
                            break
                        used_weight[w] = 1
                    else:
                        break
                x += step
            if x < limit:
                if nodes == budget:
                    cut = True
                    break
                nodes += 1
                used_label[x] = 1
                labels[v] = x
                next_label[v] = x + step
                v += 1
                if v < nv:
                    if stride[v] == 1:
                        next_label[v] = 0
                    else:
                        # The head has color 0: its label's parity is color 0's.
                        next_label[v] = (labels[head[v]] ^ coloring[v]) & 1
                continue
        # Backtrack one depth: free that vertex's label and its weights.
        v -= 1
        if v >= 0:
            x = labels[v]
            used_label[x] = 0
            for u in earlier[v]:
                used_weight[abs(x - labels[u])] = 0
    return first, nodes, sols, cut
