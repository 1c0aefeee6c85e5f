"""Tableau families and their exact generating functions.

Five families: hook-valued (canonical G), set-valued (G), multiset-valued
(J), reverse plane partitions (g), valued-set (j), plus flagged
semistandard tableaux.  All enumeration is depth-first over cells with
entry bounds; generating functions are exact, never sampled.

Arm entries (the multiset part of a hook) make the generating functions
formal power series.  Three treatments are provided:

* ``arm_mode="off"``     -- no arms (set-valued / dual cases);
* ``arm_mode="resummed"``-- arms enumerated by support, each support
  element resummed into the rational factor -a*x/(1 + a*x), giving an
  exact RationalFn;
* ``arm_mode="series"``  -- raw multisets up to an explicit total-entry
  cutoff (power-series identity testing only).

Every sum reads its letters through a ``Letters`` valuation, which
decides which letters exist (no alpha: no arms; no beta: no legs), which
alpha_k and beta_j a cell reads (the index convention), and the value of
each x_i, alpha_k and beta_j.  ``SYMBOLIC`` gives the letters themselves,
so a sum is a polynomial or rational function; a kernel binding's numbers
give that function's value there.  Each weight is a product of letters
(and of -a*x/(1 + a*x) for a resummed arm), so specialising before
summing gives the same value as evaluating the symbolic sum.

Sums live with their valuation (``Letters.sums``): nothing is kept at
module level but ``SYMBOLIC``'s and ``SET_VALUED``'s sums, which last for
the process, as ``exactalg.schur_poly``'s ``lru_cache`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, Iterator

from .conventions import PINNED_CONVENTIONS, IndexConvention
from .exactalg import A, B, Frac, LaurentPoly, Scalar, X, reciprocal
from .partitions import Partition, SkewShape, corners


@dataclass(frozen=True)
class HookEntry:
    """A one-cell hook filling: corner value, weakly increasing arm,
    strictly increasing leg."""

    corner: int
    arm: tuple[int, ...] = ()
    leg: tuple[int, ...] = ()

    def __post_init__(self):
        if self.arm and self.corner > min(self.arm):
            raise ValueError("corner must be <= min(arm)")
        if self.leg and self.corner >= min(self.leg):
            raise ValueError("corner must be < min(leg)")
        if any(self.arm[i] > self.arm[i + 1] for i in range(len(self.arm) - 1)):
            raise ValueError("arm must be weakly increasing")
        if any(self.leg[i] >= self.leg[i + 1] for i in range(len(self.leg) - 1)):
            raise ValueError("leg must be strictly increasing")

    def max_entry(self) -> int:
        out = self.corner
        if self.arm:
            out = max(out, self.arm[-1])
        if self.leg:
            out = max(out, self.leg[-1])
        return out

    def size(self) -> int:
        return 1 + len(self.arm) + len(self.leg)


@dataclass(frozen=True)
class HookTableau:
    shape: SkewShape
    cells: tuple  # tuple of ((row, col), HookEntry), reading order


class Letters:
    """The letters a tableau sum reads and the value of each, ``x(i)``,
    ``alpha(k)`` and ``beta(j)``, the one and zero of the ring the values
    live in, the index convention, and the sums taken at them.

    ``alpha`` or ``beta`` is None when the sum reads no such letter: no
    alpha gives no arms (set-valued G, g), no beta no legs (J, j).  An
    unrefined sum reads letter 1 at every index.  The convention decides
    which alpha_k and beta_j a cell reads (``indices``).  Each letter is
    read from its function once and kept (a read that raises keeps
    nothing).  ``sums`` holds every sum computed at this valuation, so its
    keys name only a shape, n and arm mode: a sum never meets another
    valuation's or ring's.  A caller shares sums by sharing its Letters
    (``kernels.tableau_table``'s ``sums``)."""

    __slots__ = ("x", "alpha", "beta", "one", "zero", "convention", "sums")

    def __init__(
        self,
        x: Callable[[int], Scalar],
        alpha: Callable[[int], Scalar] | None,
        beta: Callable[[int], Scalar] | None,
        one: Scalar = Frac(1),
        zero: Scalar = Frac(0),
        convention: IndexConvention = PINNED_CONVENTIONS.index,
    ):
        self.x = cache(x)
        self.alpha = None if alpha is None else cache(alpha)
        self.beta = None if beta is None else cache(beta)
        self.one, self.zero, self.convention = one, zero, convention
        self.sums: dict = {}

    def indices(self, r: int, c: int) -> tuple[int, int]:
        """(k, j) such that cell (r, c) reads alpha_k and beta_j: alpha by
        column and beta by row, or the other way round."""
        return (c, r) if self.convention is IndexConvention.ALPHA_BY_COLUMN else (r, c)

    def box(self, r: int, c: int) -> Scalar:
        """alpha + beta of box (r, c), of the letters read."""
        k, j = self.indices(r, c)
        box = self.zero
        if self.alpha is not None:
            box = box + self.alpha(k)
        if self.beta is not None:
            box = box + self.beta(j)
        return box


# The letters themselves, over polynomial one and zero; without alpha, the
# set-valued G's letters
SYMBOLIC = Letters(X, A, B, LaurentPoly.const(1), LaurentPoly.zero())
SET_VALUED = Letters(X, None, B, LaurentPoly.const(1), LaurentPoly.zero())


def _memo(letters: Letters, key: tuple, compute: Callable[[], Scalar]) -> Scalar:
    """compute(), kept in ``letters.sums`` under key: at a fixed valuation
    a sum is a function of its shape, n and arm mode alone."""
    sums = letters.sums
    if key not in sums:
        sums[key] = compute()
    return sums[key]


def _corner_floor(tops: dict, r: int, c: int) -> int:
    """Least corner value for cell (r, c), given the largest entry of each
    filled cell: rows are weak past the left neighbour, columns strict
    past the cell above."""
    return max(1, tops.get((r, c - 1), 1), tops.get((r - 1, c), 0) + 1)


def hook_entries(
    lo: int,
    n: int,
    arm_mode: str,
    legs_on: bool,
    budget: int | None = None,
) -> Iterator[HookEntry]:
    """Every one-cell hook filling with corner >= lo and entries <= n.

    ``off``: no arm; ``resummed``: arms are support sets in [corner, n];
    ``series``: arms are multisets, and the filling holds at most
    ``budget`` entries in all."""
    for v in range(lo, n + 1):
        leg_pool = range(v + 1, n + 1) if legs_on else range(0)
        for legsize in range(0, n - v + 1 if legs_on else 1):
            for leg in combinations(leg_pool, legsize):
                if arm_mode == "off":
                    yield HookEntry(v, (), leg)
                elif arm_mode == "resummed":
                    pool = list(range(v, n + 1))
                    for supsize in range(0, len(pool) + 1):
                        for sup in combinations(pool, supsize):
                            yield HookEntry(v, sup, leg)
                else:
                    room = budget - 1 - legsize
                    if room < 0:
                        continue
                    for arm in _multisets_up_to(v, n, room):
                        yield HookEntry(v, arm, leg)


def iter_hook_tableaux(
    shape: SkewShape,
    n: int,
    arm_mode: str = "off",
    legs_on: bool = True,
    cutoff: int | None = None,
) -> Iterator[HookTableau]:
    """All hook-valued tableaux of the skew shape with entries <= n.

    In ``resummed`` mode arms are support sets (multiplicities live in the
    weight).  In ``series`` mode arms are explicit multisets and the total
    number of entries in the tableau is capped by ``cutoff``.
    """
    if arm_mode not in ("off", "resummed", "series"):
        raise ValueError(f"unknown arm_mode {arm_mode}")
    if arm_mode == "series" and cutoff is None:
        raise ValueError("series arm_mode requires an explicit cutoff")
    cells = shape.cells()
    filled: dict = {}
    tops: dict = {}

    def rec(i: int) -> Iterator[HookTableau]:
        if i == len(cells):
            yield HookTableau(shape, tuple(sorted(filled.items())))
            return
        r, c = cells[i]
        budget = None
        if arm_mode == "series":
            budget = cutoff - sum(h.size() for h in filled.values())
        for entry in hook_entries(_corner_floor(tops, r, c), n, arm_mode, legs_on, budget):
            filled[(r, c)] = entry
            tops[(r, c)] = entry.max_entry()
            yield from rec(i + 1)
        filled.pop((r, c), None)
        tops.pop((r, c), None)

    yield from rec(0)


def _multisets_up_to(lo: int, hi: int, maxlen: int) -> Iterator[tuple[int, ...]]:
    """Weakly increasing tuples with entries in [lo, hi], length <= maxlen."""

    def rec(start: int, room: int, acc: list[int]):
        yield tuple(acc)
        if room == 0:
            return
        for v in range(start, hi + 1):
            acc.append(v)
            yield from rec(v, room - 1, acc)
            acc.pop()

    yield from rec(lo, maxlen, [])


def hook_entry_weight(
    entry: HookEntry, a: Scalar, b: Scalar, x: Callable[[int], Scalar], arm_mode: str
) -> Scalar:
    """Weight of one cell's filling at alpha = a, beta = b and x_i = x(i):
    x per entry, (-beta) per leg entry, (-alpha) per arm copy; resummed
    arms contribute -a*x/(1+a*x) per support element."""
    weight: Scalar = x(entry.corner)
    for l in entry.leg:
        weight = weight * (-b) * x(l)
    for m in entry.arm:
        ax = a * x(m)
        if arm_mode == "resummed":
            weight = weight * reciprocal(1 + ax) * (-ax)
        else:
            weight = weight * (-ax)
    return weight


def hook_tableau_weight(t: HookTableau, arm_mode: str, letters: Letters = SYMBOLIC) -> Scalar:
    """Weight of one hook tableau: the product of its cells' weights."""
    weight: Scalar = letters.one
    for (r, c), entry in t.cells:
        k, j = letters.indices(r, c)
        a = letters.alpha(k) if entry.arm else None
        b = letters.beta(j) if entry.leg else None
        weight = weight * hook_entry_weight(entry, a, b, letters.x, arm_mode)
    return weight


def _class_weights(letters: Letters, k, j, n: int, lo: int) -> tuple:
    """(m, W) pairs: W sums the weights of the cell fillings with corner
    >= lo and largest entry m, at alpha = alpha_k, beta = beta_j and x_1..x_n
    of ``letters``; k is None without arms (else they are resummed), j
    without legs.  A neighbouring cell sees only m."""

    def compute() -> tuple:
        arm_mode = "off" if k is None else "resummed"
        a = None if k is None else letters.alpha(k)
        b = None if j is None else letters.beta(j)
        classes: dict = {}
        for entry in hook_entries(lo, n, arm_mode, j is not None):
            m = entry.max_entry()
            w = hook_entry_weight(entry, a, b, letters.x, arm_mode)
            classes[m] = w + classes[m] if m in classes else w
        return tuple(sorted(classes.items()))

    return _memo(letters, ("classes", k, j, n, lo), compute)


def _class_sum(shape: SkewShape, n: int, letters: Letters) -> Scalar:
    """Sum of hook tableau weights at the valuation ``letters``, arms
    resummed, branching per cell on the largest entry only: at most
    n^cells products of class weights."""

    def compute() -> Scalar:
        cells = shape.cells()
        index = [letters.indices(r, c) for r, c in cells]
        index = [(None if letters.alpha is None else k, None if letters.beta is None else j)
                 for k, j in index]
        tops: dict = {}
        total: Scalar = letters.zero

        def rec(i: int, prefix: Scalar) -> None:
            nonlocal total
            if i == len(cells):
                total = prefix + total
                return
            r, c = cells[i]
            lo = _corner_floor(tops, r, c)
            for m, w in _class_weights(letters, *index[i], n, lo):
                tops[(r, c)] = m
                rec(i + 1, prefix * w)
            tops.pop((r, c), None)

        rec(0, letters.one)
        return total

    return _memo(letters, ("G", shape, n), compute)


def gen_G(
    shape: SkewShape, n: int, letters: Letters = SYMBOLIC, cutoff: int | None = None
) -> Scalar:
    """Canonical Grothendieck generating function of a skew shape in
    x_1..x_n at the valuation ``letters``.  Without alpha this is the
    set-valued G, without beta the multiset-valued J (a power series:
    exact when resummed, or summed as a series through ``cutoff`` entries).

    Exact modes sum per-cell classes keyed by largest entry; series mode
    sums tableau by tableau, because its cutoff caps the whole tableau.
    Corners increase strictly down a column, so a shape with a column of
    more than n cells has no tableau and sums to zero at once."""
    outer = shape.outer.parts
    inner = shape.inner.padded(len(outer))
    if any(outer[r + n] > inner[r] for r in range(len(outer) - n)):
        return letters.zero
    if letters.alpha is None or cutoff is None:
        return _class_sum(shape, n, letters)
    total: Scalar = letters.zero
    for t in iter_hook_tableaux(shape, n, "series", letters.beta is not None, cutoff):
        total = hook_tableau_weight(t, "series", letters) + total
    return total


def gen_G_skew(
    outer: Partition, inner: Partition, n: int, letters: Letters = SYMBOLIC
) -> Scalar:
    """Skew G extended to inner not contained in outer: boxes of the inner
    shape sticking out of the outer one contribute +(alpha+beta) factors
    against G of outer over the meet.  This extension is what makes the
    double-slash corner expansion vanish when inner is not contained."""
    if outer.contains(inner):
        return gen_G(SkewShape(outer, inner), n, letters)
    meet = Partition(
        [min(outer.part(i), inner.part(i)) for i in range(1, inner.length() + 1)]
    )
    g = gen_G(SkewShape(outer, meet), n, letters)
    if not g:
        return g
    factor: Scalar = letters.one
    for r in range(1, inner.length() + 1):
        for c in range(outer.part(r) + 1, inner.part(r) + 1):
            factor = factor * letters.box(r, c)
    return factor * g


def corner_expansion(
    inner: Partition, letters: Letters = SYMBOLIC
) -> list[tuple[Partition, Scalar]]:
    """(nu, factor) for each set of corners of ``inner``, fewest removed
    first: nu is ``inner`` less those corners, and factor the product of
    -(alpha+beta) over the removed boxes.  It does not read the outer
    shape, so one expansion serves every target of a kernel table."""
    corner_boxes = corners(inner)
    out = []
    for k in range(len(corner_boxes) + 1):
        for removed in combinations(corner_boxes, k):
            parts = list(inner.parts)
            for r, _ in removed:
                parts[r - 1] -= 1
            factor: Scalar = letters.one
            for r, c in removed:
                factor = factor * (-letters.box(r, c))
            out.append((Partition(parts), factor))
    return out


def gen_G_expanded(
    outer: Partition,
    expansion: list[tuple[Partition, Scalar]],
    n: int,
    letters: Letters = SYMBOLIC,
) -> Scalar:
    """The sum of factor * G_{outer/nu} (``gen_G_skew``) over the (nu,
    factor) pairs of a ``corner_expansion``, in its order; zero terms are
    not added."""
    total: Scalar = letters.zero
    for nu, factor in expansion:
        g = gen_G_skew(outer, nu, n, letters)
        if g:
            total = factor * g + total
    return total


def gen_G_doubleslash(
    outer: Partition, inner: Partition, n: int, letters: Letters = SYMBOLIC
) -> Scalar:
    """Corner-removal-corrected skew G: sum over partitions nu formed by
    removing corners of ``inner``, with factor -(alpha+beta) per removed
    box.  Vanishes whenever inner is not contained in outer."""
    return gen_G_expanded(outer, corner_expansion(inner, letters), n, letters)


# ---------------------------------------------------------------------------
# dual families: reverse plane partitions and valued-set tableaux
# ---------------------------------------------------------------------------


def _fillings(shape: SkewShape, hi: list[int], strict_columns: bool) -> Iterator[dict]:
    """Every filling of the cells by integers 1..hi[r - 1] in row r, weakly
    increasing along rows and down columns (strictly down columns with
    ``strict_columns``).  Dicts from cell to entry, cells in reading
    order."""
    cells = shape.cells()
    step = 1 if strict_columns else 0
    filled: dict = {}

    def rec(i: int) -> Iterator[dict]:
        if i == len(cells):
            yield dict(filled)
            return
        r, c = cells[i]
        lo = max(1, filled.get((r, c - 1), 1), filled.get((r - 1, c), 0) + step)
        for v in range(lo, hi[r - 1] + 1):
            filled[(r, c)] = v
            yield from rec(i + 1)
            del filled[(r, c)]

    yield from rec(0)


def iter_rpp(shape: SkewShape, n: int) -> Iterator[dict]:
    """Reverse plane partitions: entries 1..n weakly increasing along rows
    and columns (classical form; column repeats encode merges)."""
    return _fillings(shape, [n] * shape.outer.length(), strict_columns=False)


def rpp_weight(shape: SkewShape, filling: dict, letters: Letters = SYMBOLIC) -> Scalar:
    """x per box that is not merged with the box below; beta_row per
    merged box (same entry directly below)."""
    w = letters.one
    for (r, c), v in filling.items():
        below = filling.get((r + 1, c))
        if below is not None and below == v:
            w = w * letters.beta(r)
        else:
            w = w * letters.x(v)
    return w


def gen_g(shape: SkewShape, n: int, letters: Letters = SYMBOLIC) -> Scalar:
    """Dual Grothendieck generating function (reverse plane partitions) at
    the valuation ``letters``."""

    def compute() -> Scalar:
        weights = (rpp_weight(shape, f, letters) for f in iter_rpp(shape, n))
        return sum(weights, letters.zero)

    return _memo(letters, ("g", shape, n), compute)


def iter_ssyt(shape: SkewShape, n: int) -> Iterator[dict]:
    """Semistandard tableaux: weakly increasing rows, strictly increasing
    columns, entries 1..n."""
    return _fillings(shape, [n] * shape.outer.length(), strict_columns=True)


def vst_weight(shape: SkewShape, filling: dict, letters: Letters = SYMBOLIC) -> Scalar:
    """Valued-set weight summed over all row-merge choices.

    Each horizontally adjacent equal pair may merge or not; a box followed
    by an equal right neighbour contributes (x + alpha_col), all other
    boxes contribute x.  Summing the binary choices gives the product form
    directly.
    """
    w = letters.one
    for (r, c), v in filling.items():
        right = filling.get((r, c + 1))
        if right is not None and right == v:
            w = w * (letters.x(v) + letters.alpha(c))
        else:
            w = w * letters.x(v)
    return w


def gen_j(shape: SkewShape, n: int, letters: Letters = SYMBOLIC) -> Scalar:
    """Dual weak Grothendieck generating function (valued-set tableaux) at
    the valuation ``letters``."""

    def compute() -> Scalar:
        weights = (vst_weight(shape, f, letters) for f in iter_ssyt(shape, n))
        return sum(weights, letters.zero)

    return _memo(letters, ("j", shape, n), compute)


# ---------------------------------------------------------------------------
# flagged semistandard tableaux
# ---------------------------------------------------------------------------


def gen_flagged_schur(lam: Partition, n: int) -> LaurentPoly:
    """Flagged Schur generating function over the ordered alphabet
    x_1 < ... < x_n < b_1 < b_2 < ...; entries in row i are bounded by the
    flag letter b_i.

    Letters are encoded as integers 1..n (x's) and n+1, n+2, ... (b's).
    """
    ell = lam.length()
    if ell == 0:
        return LaurentPoly.const(1)
    hi = list(range(n + 1, n + ell + 1))  # row i's flag letter b_i
    total = LaurentPoly.zero()
    for filling in _fillings(SkewShape(lam), hi, strict_columns=True):
        weight = LaurentPoly.const(1)
        for v in filling.values():
            weight = weight * (X(v) if v <= n else B(v - n))
        total = total + weight
    return total
