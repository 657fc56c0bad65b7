"""Constructive odd-graceful labelers for the cycle-plus-path family.

The paper's construction comes in two interchangeable forms that must agree
vertex for vertex. The closed form assigns every label directly: around the
cycle, odd positions take the ascending even numbers 0, 2, 4, ... while even
positions take the descending odd numbers 2q-1, 2q-3, ..., except the closing
vertex, which drops to 2q-(2m-3) so the two cycle edges at the seam consume
the weights 2q-3m+5 and 2q-2m+3. Along the path, odd positions take small odd
numbers and even positions take a descending run of even numbers; the exact
formulas branch on the parity of half the cycle order.

The pass-based variant reaches the same labeling operationally: after fixing
the closing cycle label and the reserved seam weight, one pass fills the
cycle and an independent pass walks the path, carrying a weight that starts
just below the closing label and decreases by 2, skipping over the reserved
weight when the sequence meets it. Vertex labels alternate adding and
subtracting the carried weight. Each vertex and edge is touched a constant
number of times, so construction is linear in the edge count.

Both need the path order to reach min_path_order(m); one below it the
labeling collides. The short-path form covers 2 <= n <= m instead, so
together the two forms label every C_m + P_n with even m >= 4.
"""

from __future__ import annotations

import enum

from .errors import ValidationError
from .graph import FamilySpec, _cycle_order
from .labeling import Labeling


class BoundPolicy(enum.Enum):
    """ENFORCE rejects path orders below the minimum; FORCE constructs anyway."""

    ENFORCE = "enforce"
    FORCE = "force"


def min_path_order(cycle_order: int) -> int:
    """Smallest path order for which the paper's construction is valid.

    cycle_order - 1 when the cycle order is divisible by four, cycle_order - 3
    otherwise. One below either bound the construction provably collides (see
    the boundary tests), so shorter paths take label_short_path.
    """
    cycle_order = _cycle_order(cycle_order)
    return cycle_order - 1 if cycle_order % 4 == 0 else cycle_order - 3


def label_closed_form(spec: FamilySpec, policy: BoundPolicy = BoundPolicy.ENFORCE) -> Labeling:
    """Direct formula labeling; valid whenever the path order meets the minimum."""
    _check_bound(spec, policy)
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
    return Labeling(tuple(labels))


def label_algorithmic(spec: FamilySpec, policy: BoundPolicy = BoundPolicy.ENFORCE) -> Labeling:
    """Pass-based labeling; equals label_closed_form exactly on every input.

    The cycle pass and the path pass are independent once the closing label
    and the reserved weight are fixed.
    """
    _check_bound(spec, policy)
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
    return Labeling(tuple(labels))


def label_short_path(spec: FamilySpec) -> Labeling:
    """Labeling for 2 <= n <= m: a zigzag path beside a shifted C_m labeling.

    With q = m + n - 1, path vertex j = 0..n-1 takes j (j even) or 2q - j
    (j odd), so edge j-1, j weighs 2q - 2j + 1: the path uses 2m+1, ..., 2q-1.
    With k = m/2, cycle vertex i = 1..m takes i (i odd), plus 2 when k is odd
    and i > k; or 2m + 2 - i (i even), less 2 when i > k (k even) or i = m
    (k odd). Edge i, i+1 weighs 2m + 1 - 2i for i <= k and 2m - 1 - 2i for
    k < i < m, and edge m, 1 weighs m - 1: the cycle uses 1, 3, ..., 2m-1.
    Its odd labels are distinct and at most m + 1, its even ones distinct and
    at least m. The path's even labels are at most n - 1 < m and its odd ones
    at least 2m + n - 1 > 2m, so no label repeats and all lie in 0..2q-1.
    At n = m + 1 the path's label m meets the cycle's, so n > m is refused.
    """
    m, n, q = spec.cycle_order, spec.path_order, spec.edge_count
    if n > m:
        raise ValidationError(f"path order {n} exceeds cycle order {m}")
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
    return Labeling(tuple(labels))


def _check_bound(spec: FamilySpec, policy: BoundPolicy) -> None:
    minimum = min_path_order(spec.cycle_order)
    if policy is BoundPolicy.ENFORCE and spec.path_order < minimum:
        raise ValidationError(
            f"path order {spec.path_order} is below the minimum {minimum} "
            f"for cycle order {spec.cycle_order}; label_short_path covers it"
        )
