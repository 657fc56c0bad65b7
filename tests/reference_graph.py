"""Reference validator for differential tests of Graph construction: the
edge loop that Graph.__post_init__ had in version 0.8.0 before its dedupe set
held edge tuples. It keys each unordered pair by a fresh int a*n+b with a < b,
which is unique only once both endpoints are in range, so the range check must
come first. Faults are reported in edge order, first fault wins."""

from oddgraceful.errors import ValidationError


def reference_validate(n: int, edges: tuple[tuple[int, int], ...]) -> None:
    seen: set[int] = set()
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ValidationError(f"edge ({a}, {b}) has an endpoint outside 0..{n - 1}")
        if a == b:
            raise ValidationError(f"self-loop at vertex {a}")
        key = a * n + b if a < b else b * n + a
        if key in seen:
            raise ValidationError(f"duplicate edge ({a}, {b})")
        seen.add(key)
