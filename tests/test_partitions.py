import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ktasep.partitions import (
    Partition,
    SkewShape,
    conjugate,
    contains,
    corners,
    is_horizontal_strip,
    is_vertical_strip,
    partitions_between,
    partitions_in_box,
    push_closure,
)

parts_strategy = st.lists(st.integers(0, 8), max_size=8).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 8), max_size=10), st.integers(0, 4))
def test_trusted_equals_checked_constructor(xs, zeros):
    # weakly decreasing lists, with trailing zeros, all zeros and empty
    pos = sorted(xs, reverse=True) + [0] * zeros
    p = Partition._trusted(pos)
    assert p == Partition(pos) and hash(p) == hash(Partition(pos))
    assert p.parts == Partition(pos).parts
    assert Partition._trusted([0] * zeros) == Partition()
    assert Partition._trusted(tuple(pos)) == Partition(pos)


def test_conjugate_examples():
    assert conjugate(Partition([3, 3, 1])) == Partition([3, 2, 2])
    assert conjugate(Partition([])) == Partition([])
    # column counts of the drawn diagram
    assert conjugate(Partition([4, 3])) == Partition([2, 2, 2, 1])


@settings(max_examples=60)
@given(parts_strategy)
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p


def test_contains():
    assert contains(Partition([2, 1]), Partition([1, 1]))
    assert not contains(Partition([2, 1]), Partition([1, 1, 1]))
    assert contains(Partition([3, 3, 1]), Partition([3, 2]))


def test_corners():
    assert corners(Partition([1, 1])) == [(2, 1)]
    assert corners(Partition([3, 3, 1])) == [(2, 3), (3, 1)]
    assert corners(Partition([])) == []


def test_strips():
    assert is_vertical_strip(SkewShape(Partition([2, 2]), Partition([1, 1])))
    assert not is_vertical_strip(SkewShape(Partition([3, 1]), Partition([1])))
    # (2,1)/() has two cells in row 1 and two in column 1, so it is
    # neither kind of strip (see decisions ledger); a single box is both
    s = SkewShape(Partition([2, 1]), Partition([]))
    assert not is_vertical_strip(s) and not is_horizontal_strip(s)
    single = SkewShape(Partition([1]), Partition([]))
    assert is_vertical_strip(single) and is_horizontal_strip(single)


@settings(max_examples=60)
@given(parts_strategy, parts_strategy)
def test_strip_conjugate_duality(a, b):
    big = Partition([x + y for x, y in zip(a.padded(8), b.padded(8))])
    if not big.contains(a):
        return
    s = SkewShape(big, a)
    assert is_vertical_strip(s) == is_horizontal_strip(s.conjugate())


def test_push_closure_examples():
    assert push_closure(Partition([4, 1, 1, 1]), 4) == (Partition([4, 2, 2, 2]), [2, 3])
    assert push_closure(Partition([2, 1]), 1) == (Partition([3, 1]), [])
    assert push_closure(Partition([1, 1, 1]), 3) == (Partition([2, 2, 2]), [1, 2])


@settings(max_examples=60)
@given(parts_strategy, st.integers(1, 8))
def test_push_closure_minimal(p, j):
    nu, pushed = push_closure(p, j)
    # contains p + e_j
    assert nu.part(j) == p.part(j) + 1
    assert nu.contains(p)
    # minimality: removing any pushed box breaks the partition condition
    for r in pushed:
        parts = list(nu.padded(max(len(nu.parts), j)))
        parts[r - 1] -= 1
        try:
            q = Partition(parts)
        except ValueError:
            continue
        assert not q.contains(Partition(p.padded(j)[: j])) or q.part(j) < p.part(j) + 1 or any(
            parts[i] < parts[i + 1] for i in range(len(parts) - 1)
        )


def test_serialization():
    p = Partition([3, 3, 1])
    assert p.to_json() == [3, 3, 1]
    assert Partition.from_json([3, 3, 1]) == p


def test_box_enumeration():
    box = partitions_in_box(3, 3)
    assert len(box) == 20
    assert Partition([]) in box and Partition([3, 3, 3]) in box


def _between_brute_force(lower, upper):
    return [
        Partition(t)
        for t in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lower, upper)))
        if all(t[j] <= t[j - 1] for j in range(1, len(t)))
    ]


def test_partitions_between_against_brute_force():
    rng = random.Random(7)
    cases = [([], []), ([2], [1]), ([0, 3], [4, 4]), ([1, 1, 1, 1], [3, 0, 3, 3])]
    for _ in range(300):
        rows = rng.randint(0, 4)
        cases.append(([rng.randint(0, 3) for _ in range(rows)],
                      [rng.randint(0, 5) for _ in range(rows)]))
    empty = 0
    for lower, upper in cases:
        got = partitions_between(lower, upper)
        assert got == sorted(_between_brute_force(lower, upper)), (lower, upper)
        assert all(a < b for a, b in zip(got, got[1:])), (lower, upper)
        empty += not got
    assert partitions_between([], []) == [Partition([])]
    assert partitions_between([2], [1]) == [] and partitions_between([0, 3], [4, 4]) != []
    assert empty > 10  # lower above the bounds empties the range


def test_invalid_partition():
    import pytest

    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])
