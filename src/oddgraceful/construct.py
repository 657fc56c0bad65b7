"""Constructive odd-graceful labelers for the cycle-plus-path family.

The paper's construction comes in two interchangeable forms that must agree
vertex for vertex. Each streams its labels from a few ranges, with no
per-vertex Python code, so construction is linear in the edge count. The
private streams (_closed_form_labels, _algorithmic_labels,
_short_path_labels) check their spec when called and return the labels as
an iterator; the public constructors make a Labeling of their tuple, and
cli label draws a stream a chunk at a time, with no tuple.

The closed form interleaves runs of labels. Around the cycle, the ascending
evens 0, 2, ..., m-2 alternate with the descending odds 2q-1, ..., 2q-m+3,
and the closing vertex drops to 2q-2m+3, so the two cycle edges at the seam
take the weights 2q-3m+5 and 2q-2m+3. Along the path, ascending odds from 1
alternate with descending evens from 2q-2m+2; one of the two runs passes
over a single value, which one depending on the parity of half the cycle
order.

The pass-based form reaches the same labels as two walks that add and
subtract in turn a falling weight: the cycle from 0 over 2q-1, 2q-3, ...
and then the reserved seam weight 2q-3m+5, the path from 1 over the weights
below the closing label, passing over the reserved one.

Both need the path order to reach min_path_order(m); one below it the
labeling collides. The short-path form covers 2 <= n <= m instead, so
together the two forms label every C_m + P_n with even m >= 4.
"""

from __future__ import annotations

import enum
from itertools import accumulate, chain, cycle, islice
from operator import mul

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
    """Direct formula labeling; valid whenever the path order meets the minimum.

    The cycle interleaves 0, 2, ..., m-2 with 2q-1, 2q-3, ..., 2q-m+3 and
    then the closing label 2q-2m+3. With k = m/2 and base = 2q-2m, path
    vertex i = 1..n takes the next of the odd numbers 1, 3, ... (i odd) or
    of the even numbers base+2, base, ... (i even). Past i = k-2 the odds
    pass over k when k is odd, the evens over base+4-k when k is even.
    """
    return Labeling(tuple(_closed_form_labels(spec, policy)))


def _closed_form_labels(spec: FamilySpec, policy: BoundPolicy = BoundPolicy.ENFORCE):
    """label_closed_form's labels as an iterator, the bound checked now."""
    _check_bound(spec, policy)
    m, n, q = spec.cycle_order, spec.path_order, spec.edge_count
    k, base = m // 2, 2 * q - 2 * m
    falling = chain(range(2 * q - 1, 2 * q - m + 1, -2), (2 * q - 2 * m + 3,))
    ring = _zigzag(range(0, m, 2), falling, m)
    if k % 2:
        odds, evens = _passing_over(1, 2 * q, 2, k), range(base + 2, -1, -2)
    else:
        odds, evens = range(1, 2 * q, 2), _passing_over(base + 2, -1, -2, base + 4 - k)
    return chain(ring, _zigzag(odds, evens, n))


def label_algorithmic(spec: FamilySpec, policy: BoundPolicy = BoundPolicy.ENFORCE) -> Labeling:
    """Pass-based labeling; equals label_closed_form exactly on every input.

    Each half is a walk that adds and subtracts in turn a falling weight. The
    cycle walks from 0 over 2q-1, 2q-3, ..., 2q-2m+5 and then the reserved
    weight 2q-3m+5, which lands on the closing label 2q-2m+3. The path walks
    from 1 over closing-2, closing-4, ..., passing over the reserved weight.
    """
    return Labeling(tuple(_algorithmic_labels(spec, policy)))


def _algorithmic_labels(spec: FamilySpec, policy: BoundPolicy = BoundPolicy.ENFORCE):
    """label_algorithmic's labels as an iterator, the bound checked now."""
    _check_bound(spec, policy)
    m, n, q = spec.cycle_order, spec.path_order, spec.edge_count
    closing_label, reserved_weight = 2 * q - 2 * m + 3, 2 * q - 3 * m + 5
    ring_weights = chain(range(2 * q - 1, closing_label, -2), (reserved_weight,))
    path_weights = _passing_over(closing_label - 2, -1, -2, reserved_weight)
    return chain(
        accumulate(map(mul, ring_weights, cycle((1, -1))), initial=0),
        islice(accumulate(map(mul, path_weights, cycle((1, -1))), initial=1), n),
    )


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
    As runs: the cycle's odd labels rise from 1 passing over k + 2 (k odd),
    its even ones fall from 2m passing over m + 2 (k odd) or 3k (k even).
    """
    return Labeling(tuple(_short_path_labels(spec)))


def _short_path_labels(spec: FamilySpec):
    """label_short_path's labels as an iterator, n > m refused now."""
    m, n, q = spec.cycle_order, spec.path_order, spec.edge_count
    if n > m:
        raise ValidationError(f"path order {n} exceeds cycle order {m}")
    k = m // 2
    if k % 2:
        odds, evens = _passing_over(1, 2 * m, 2, k + 2), _passing_over(2 * m, -1, -2, m + 2)
    else:
        odds, evens = range(1, m, 2), _passing_over(2 * m, -1, -2, 3 * k)
    path = _zigzag(range(0, n, 2), range(2 * q - 1, -1, -2), n)
    return chain(_zigzag(odds, evens, m), path)


def _zigzag(firsts, seconds, count: int):
    """The first count of firsts[0], seconds[0], firsts[1], seconds[1], ...;
    the runs may go on past what is taken, since nothing more is drawn."""
    return islice(chain.from_iterable(zip(firsts, seconds)), count)


def _passing_over(start: int, stop: int, step: int, skipped: int):
    """The progression from start by step without skipped, which lies on it.
    It stops short of stop, or of skipped when that lies past stop."""
    return chain(range(start, skipped, step), range(skipped + step, stop, step))


def _check_bound(spec: FamilySpec, policy: BoundPolicy) -> None:
    minimum = min_path_order(spec.cycle_order)
    if policy is BoundPolicy.ENFORCE and spec.path_order < minimum:
        raise ValidationError(
            f"path order {spec.path_order} is below the minimum {minimum} "
            f"for cycle order {spec.cycle_order}; label_short_path covers it"
        )
