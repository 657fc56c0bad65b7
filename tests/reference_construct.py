"""References for differential tests of the family constructors.

Each function is the per-vertex loop body that oddgraceful.construct had in
version 0.13.0: it fills a list of m + n zeros one vertex at a time from the
paper's formulas. The constructors now stream ranges instead; these loops
define the labels they must give, on every spec including those below the
minimum path order. The bound checks are left to the package."""

from oddgraceful.graph import FamilySpec


def reference_closed_form(spec: FamilySpec) -> tuple[int, ...]:
    m, n, q = spec.cycle_order, spec.path_order, spec.edge_count
    k = m // 2
    labels = [0] * (m + n)

    for i in range(1, m + 1):
        if i % 2:
            labels[i - 1] = i - 1
        elif i <= m - 2:
            labels[i - 1] = 2 * q - (i - 1)
    labels[m - 1] = 2 * q - (2 * m - 3)

    base = 2 * q - 2 * m
    if k % 2:
        for i in range(1, n + 1):
            if i % 2:
                labels[m + i - 1] = i if i <= k - 2 else i + 2
            else:
                labels[m + i - 1] = base + 4 - i
    else:
        for i in range(1, n + 1):
            if i % 2:
                labels[m + i - 1] = i
            elif i <= k - 2:
                labels[m + i - 1] = base + 4 - i
            else:
                labels[m + i - 1] = base + 2 - i
    return tuple(labels)


def reference_algorithmic(spec: FamilySpec) -> tuple[int, ...]:
    m, n, q = spec.cycle_order, spec.path_order, spec.edge_count
    closing_label = 2 * q - (2 * m - 3)
    reserved_weight = 2 * q - 3 * m + 5
    labels = [0] * (m + n)

    # Cycle pass: evens up from 0 alternate with odds down from 2q-1, then the closing label.
    for i in range(3, m, 2):
        labels[i - 1] = labels[i - 3] + 2
    for i in range(2, m, 2):
        labels[i - 1] = 2 * q - i + 1
    labels[m - 1] = closing_label

    # Path pass: add and subtract in turn a falling weight that skips the reserved one.
    labels[m] = 1
    w = closing_label
    for j in range(1, n):
        w -= 2
        if w == reserved_weight:
            w -= 2
        labels[m + j] = labels[m + j - 1] + (w if j % 2 else -w)
    return tuple(labels)


def reference_short_path(spec: FamilySpec) -> tuple[int, ...]:
    m, n, q = spec.cycle_order, spec.path_order, spec.edge_count
    k = m // 2
    labels = [0] * (m + n)
    for i in range(1, m + 1):
        if i % 2:
            labels[i - 1] = i + 2 if k % 2 and i > k else i
        elif (i == m) if k % 2 else (i > k):
            labels[i - 1] = 2 * m - i
        else:
            labels[i - 1] = 2 * m + 2 - i
    for j in range(n):
        labels[m + j] = 2 * q - j if j % 2 else j
    return tuple(labels)
