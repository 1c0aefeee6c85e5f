"""Integer partitions, skew shapes, and the shape predicates used by the
particle dynamics and tableau enumerators.

Partitions double as bosonic particle configurations: part ``i`` is the
position of the ``i``-th particle.  All public indexing is 1-based.
"""

from __future__ import annotations

import math
from functools import total_ordering
from typing import Iterable, Iterator, Sequence


@total_ordering
class Partition:
    """A weakly decreasing sequence of nonnegative integers, trailing zeros
    trimmed.  Immutable and hashable, so usable as a table key.
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: Iterable[int] = ()):
        p = list(parts)
        while p and p[-1] == 0:
            p.pop()
        for i in range(len(p) - 1):
            if p[i] < p[i + 1]:
                raise ValueError(f"not weakly decreasing: {p}")
        if p and p[-1] < 0:
            raise ValueError(f"negative part: {p}")
        self.parts = tuple(p)
        self._hash = hash(self.parts)

    @classmethod
    def _trusted(cls, pos: Sequence[int]) -> "Partition":
        """The partition of ``pos``, weakly decreasing and nonnegative by
        construction (``simulate.move`` keeps it so), without the order
        check of the constructor."""
        try:
            pos = pos[:pos.index(0)]
        except ValueError:
            pass
        self = cls.__new__(cls)
        self.parts = parts = tuple(pos)
        self._hash = hash(parts)
        return self

    # -- basic queries ---------------------------------------------------

    def part(self, i: int) -> int:
        """1-based part access; zero beyond the length."""
        if i < 1:
            raise IndexError("parts are 1-indexed")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def length(self) -> int:
        """Number of nonzero parts."""
        return len(self.parts)

    def size(self) -> int:
        return sum(self.parts)

    def is_empty(self) -> bool:
        return not self.parts

    def padded(self, n: int) -> tuple[int, ...]:
        """Parts padded with zeros to length ``n``."""
        if n < len(self.parts):
            raise ValueError(f"cannot pad {self} to shorter length {n}")
        return self.parts + (0,) * (n - len(self.parts))

    # -- containment and cells -------------------------------------------

    def contains(self, other: "Partition") -> bool:
        """Componentwise containment (zero padding)."""
        mine, theirs = self.parts, other.parts
        return len(mine) >= len(theirs) and all(a >= b for a, b in zip(mine, theirs))

    def cells(self) -> Iterator[tuple[int, int]]:
        """All (row, col) cells, 1-indexed, row-major."""
        for r, p in enumerate(self.parts, start=1):
            for c in range(1, p + 1):
                yield (r, c)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other) -> bool:
        # Lexicographic on zero-padded parts; deterministic table ordering.
        n = max(len(self.parts), len(other.parts))
        return self.padded(n) < other.padded(n)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> list[int]:
        return list(self.parts)

    @classmethod
    def from_json(cls, data) -> "Partition":
        return cls(data)


EMPTY = Partition()


class SkewShape:
    """A pair inner ⊆ outer; cells are {(i,j) : inner_i < j <= outer_i}."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition = EMPTY):
        if not outer.contains(inner):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        self.outer = outer
        self.inner = inner

    def cells(self) -> list[tuple[int, int]]:
        inner = self.inner.padded(self.outer.length())
        return [(r, c) for r, (hi, lo) in enumerate(zip(self.outer.parts, inner), 1)
                for c in range(lo + 1, hi + 1)]

    def size(self) -> int:
        return self.outer.size() - self.inner.size()

    def conjugate(self) -> "SkewShape":
        return SkewShape(conjugate(self.outer), conjugate(self.inner))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewShape)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self) -> int:
        return hash((self.outer, self.inner))

    def __repr__(self) -> str:
        return f"SkewShape({self.outer!r}, {self.inner!r})"


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram: result_j = #{i : p_i >= j}."""
    if p.is_empty():
        return EMPTY
    width = p.parts[0]
    cols = [0] * width
    for part in p.parts:
        for j in range(part):
            cols[j] += 1
    return Partition(cols)


def contains(outer: Partition, inner: Partition) -> bool:
    return outer.contains(inner)


def corners(p: Partition) -> list[tuple[int, int]]:
    """Removable boxes (i, p_i) with p_i > p_{i+1}, ascending row order."""
    out = []
    for i in range(1, p.length() + 1):
        if p.part(i) > p.part(i + 1):
            out.append((i, p.part(i)))
    return out


def is_vertical_strip(s: SkewShape) -> bool:
    """At most one cell per row."""
    return all(s.outer.part(r) - s.inner.part(r) <= 1 for r in range(1, s.outer.length() + 1))


def is_horizontal_strip(s: SkewShape) -> bool:
    """At most one cell per column."""
    return is_vertical_strip(s.conjugate())


def push_closure(p: Partition, j: int) -> tuple[Partition, list[int]]:
    """Smallest partition containing p + e_j: one box added to every row
    k..j where k is minimal with p_k = p_j.  Returns it together with the
    list of pushed rows k..j-1.
    """
    if j < 1:
        raise ValueError("row index must be >= 1")
    target = p.part(j)
    k = j
    while k > 1 and p.part(k - 1) == target:
        k -= 1
    n = max(len(p.parts), j)
    parts = list(p.padded(n))
    for i in range(k, j + 1):
        parts[i - 1] += 1
    return Partition(parts), list(range(k, j))


def partitions_between(lower: Sequence[int], upper: Sequence[int]) -> list[Partition]:
    """Every lam with len(lower) rows (zeros allowed) and
    lower[j-1] <= lam_j <= min(upper[j-1], lam_{j-1}), in ascending
    lexicographic order.  `kernels.normalization_identity` lists its
    targets with it, and the box and subpartition listings are its special
    cases."""
    rows = len(lower)
    out: list[Partition] = []

    def rec(j: int, prefix: list[int], prev: int) -> None:
        if j == rows:
            out.append(Partition(prefix))
            return
        for v in range(lower[j], min(upper[j], prev) + 1):
            rec(j + 1, prefix + [v], v)

    rec(0, [], math.inf)
    return out


def partitions_in_box(max_len: int, max_part: int) -> list[Partition]:
    """All partitions with at most ``max_len`` parts, each <= ``max_part``,
    in ascending lexicographic order.
    """
    return partitions_between([0] * max_len, [max_part] * max_len)


def subpartitions(p: Partition) -> list[Partition]:
    """All mu with mu ⊆ p, ascending order."""
    return partitions_between([0] * p.length(), p.parts)
