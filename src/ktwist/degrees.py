"""Small helpers for degree vectors.

A degree is a plain tuple of ints, one entry per color.  Path degrees live in
N^k, period vectors in Z^k.  Everything here is total and allocation-light;
the rest of the package leans on these instead of numpy so that all
arithmetic stays over exact ints.

The two-operand helpers `add`, `sub` and `join` check that both degrees
have the same length and raise ValueError when they do not.  They sit under
every path composition, factorization and sigma_c resolution, so they and
the one-operand helpers `scale`, `pos_part` and `neg_part` build their
tuples with `map` or a list comprehension: a generator expression costs
more than twice as much per call on these short vectors.
"""

from __future__ import annotations

from itertools import product
from operator import add as _plus, sub as _minus
from typing import Iterator

Degree = tuple[int, ...]


def zero(k: int) -> Degree:
    return (0,) * k


def unit(k: int, i: int) -> Degree:
    """Unit vector for color i (1-based)."""
    if not 1 <= i <= k:
        raise ValueError(f"color {i} out of range 1..{k}")
    return tuple(1 if j == i - 1 else 0 for j in range(k))


def as_degree(k: int, x, what: str) -> Degree:
    """x as a degree with k entries; an int n stands for (n, ..., n)."""
    if isinstance(x, int):
        return (x,) * k
    x = tuple(x)
    if len(x) != k:
        raise ValueError(f"{what} {x} has wrong length for {k} colors")
    return x


def _length_error(a: Degree, b: Degree) -> ValueError:
    return ValueError(f"degrees {a} and {b} differ in length")


def add(a: Degree, b: Degree) -> Degree:
    if len(a) != len(b):
        raise _length_error(a, b)
    return tuple(map(_plus, a, b))


def sub(a: Degree, b: Degree) -> Degree:
    if len(a) != len(b):
        raise _length_error(a, b)
    return tuple(map(_minus, a, b))


def leq(a: Degree, b: Degree) -> bool:
    """Componentwise a <= b."""
    return all(x <= y for x, y in zip(a, b, strict=True))


def join(a: Degree, b: Degree) -> Degree:
    if len(a) != len(b):
        raise _length_error(a, b)
    return tuple(map(max, a, b))


def pos_part(a: Degree) -> Degree:
    return tuple([x if x > 0 else 0 for x in a])


def neg_part(a: Degree) -> Degree:
    # a = pos_part(a) - neg_part(a)
    return tuple([-x if x < 0 else 0 for x in a])


def total(a: Degree) -> int:
    return sum(a)


def is_zero(a: Degree) -> bool:
    return all(x == 0 for x in a)


def box(upper: Degree) -> Iterator[Degree]:
    """All n with 0 <= n <= upper, lexicographic."""
    return product(*(range(u + 1) for u in upper))


def signed_box(radius: Degree) -> Iterator[Degree]:
    """All p with |p_i| <= radius_i, lexicographic."""
    return product(*(range(-r, r + 1) for r in radius))


def scale(c: int, a: Degree) -> Degree:
    return tuple([c * x for x in a])


def total_box(k: int, cap: int) -> Iterator[Degree]:
    """All n in N^k, k >= 1, with total(n) <= cap, graded lexicographic."""
    def exact(t: int, left: int) -> Iterator[Degree]:
        # the degrees with `left` entries and total exactly t, lexicographic
        if left == 1:
            yield (t,)
            return
        for x in range(t + 1):
            for rest in exact(t - x, left - 1):
                yield (x,) + rest

    for t in range(cap + 1):
        yield from exact(t, k)
