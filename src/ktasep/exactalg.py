"""Exact arithmetic: sparse multivariate Laurent polynomials over rationals,
rational functions with factored denominators, Schur-basis expansion, and
supersymmetric h/e evaluation.

Variables live in four families: X (time parameters x_i), P (particle
rates pi_j, also serving as rho_j), A (position parameters alpha_k), and
B (beta_j).  beta_j and pi_{j+1} are distinct variables even when a kernel
substitutes one for the other.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as Frac
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence, Union

FAMILY_ORDER = {"X": 0, "P": 1, "A": 2, "B": 3}
FAMILY_NAMES = {"X": "x", "P": "pi", "A": "alpha", "B": "beta"}


class VarId(NamedTuple):
    family: str  # one of X, P, A, B
    index: int

    def sort_key(self):
        return (FAMILY_ORDER[self.family], self.index)

    def __str__(self):
        return f"{FAMILY_NAMES[self.family]}{self.index}"


def X(i: int) -> "LaurentPoly":
    return LaurentPoly.var(VarId("X", i))


def P(j: int) -> "LaurentPoly":
    return LaurentPoly.var(VarId("P", j))


def A(k: int) -> "LaurentPoly":
    return LaurentPoly.var(VarId("A", k))


def B(j: int) -> "LaurentPoly":
    return LaurentPoly.var(VarId("B", j))


Monomial = tuple  # tuple[tuple[VarId, int], ...] sorted by VarId.sort_key
Scalar = Union[int, Frac, "LaurentPoly", "RationalFn"]

_EMPTY_MONO: Monomial = ()


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        ne = d.get(v, 0) + e
        if ne:
            d[v] = ne
        else:
            del d[v]
    return tuple(sorted(d.items(), key=lambda it: it[0].sort_key()))


def _mono_pow(m: Monomial, k: int) -> Monomial:
    return tuple((v, e * k) for v, e in m) if k else _EMPTY_MONO


class PoleError(ZeroDivisionError):
    """Raised when a binding lands on a zero of a denominator factor."""


class LaurentPoly:
    """Sparse Laurent polynomial: map from monomial to nonzero Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms or {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        c = Frac(c)
        return cls({_EMPTY_MONO: c} if c else {})

    @classmethod
    def var(cls, v: VarId, exp: int = 1) -> "LaurentPoly":
        if exp == 0:
            return cls.const(1)
        return cls({((v, exp),): Frac(1)})

    @classmethod
    def monomial(cls, pairs: Iterable[tuple[VarId, int]], coeff=1) -> "LaurentPoly":
        d = {}
        for v, e in pairs:
            if e:
                d[v] = d.get(v, 0) + e
        mono = tuple(sorted(d.items(), key=lambda it: it[0].sort_key()))
        c = Frac(coeff)
        return cls({mono: c} if c else {})

    # -- ring operations ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if isinstance(other, (int, Frac)):
            other = LaurentPoly.const(other)
        if isinstance(other, LaurentPoly):
            if not self.terms:
                return other
            if not other.terms:
                return self
            out = dict(self.terms)
            for m, c in other.terms.items():
                nc = out.get(m, 0) + c
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
            return LaurentPoly(out)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Frac)):
            other = LaurentPoly.const(other)
        if isinstance(other, LaurentPoly):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Frac)):
            c = Frac(other)
            if not c:
                return LaurentPoly.zero()
            return LaurentPoly({m: cc * c for m, cc in self.terms.items()})
        if isinstance(other, LaurentPoly):
            if not self.terms or not other.terms:
                return LaurentPoly.zero()
            # multiply the smaller term list on the outside
            a, b = (self.terms, other.terms)
            if len(a) > len(b):
                a, b = b, a
            out: dict = {}
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    m = _mono_mul(m1, m2)
                    nc = out.get(m, 0) + c1 * c2
                    if nc:
                        out[m] = nc
                    else:
                        out.pop(m, None)
            return LaurentPoly(out)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers: use RationalFn or monomial inverse")
        result = LaurentPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Frac)):
            c = Frac(other)
            return LaurentPoly({m: cc / c for m, cc in self.terms.items()})
        if isinstance(other, LaurentPoly):
            mono = other.as_monomial()
            if mono is not None:
                m, c = mono
                inv = tuple((v, -e) for v, e in m)
                return self * LaurentPoly({inv: 1 / c})
            return RationalFn.from_poly(self) / RationalFn.from_poly(other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Frac)):
            return LaurentPoly.const(other) / self
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Frac)):
            other = LaurentPoly.const(other)
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, RationalFn):
            return other == self
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure ---------------------------------------------------------

    def as_monomial(self):
        """(monomial, coeff) if this is a single term, else None."""
        if len(self.terms) == 1:
            [(m, c)] = self.terms.items()
            return m, c
        return None

    def constant_term(self) -> Frac:
        return self.terms.get(_EMPTY_MONO, Frac(0))

    def truncate_family_degree(self, family: str, cap: int) -> "LaurentPoly":
        """Drop terms whose total degree in ``family`` exceeds ``cap``."""
        out = {
            m: c
            for m, c in self.terms.items()
            if sum(e for v, e in m if v.family == family) <= cap
        }
        return LaurentPoly(out)

    def swap_vars(self, a: VarId, b: VarId) -> "LaurentPoly":
        out: dict = {}
        for m, c in self.terms.items():
            nm = []
            for v, e in m:
                if v == a:
                    nm.append((b, e))
                elif v == b:
                    nm.append((a, e))
                else:
                    nm.append((v, e))
            key = tuple(sorted(nm, key=lambda it: it[0].sort_key()))
            out[key] = out.get(key, 0) + c
        return LaurentPoly({m: c for m, c in out.items() if c})

    def eval(self, binding: dict):
        """Evaluate at a complete binding VarId -> number."""
        total = None
        for m, c in self.terms.items():
            val = c if isinstance(c, Frac) else Frac(c)
            acc = val
            for v, e in m:
                if v not in binding:
                    raise KeyError(f"unbound variable {v}")
                base = binding[v]
                if base == 0 and e < 0:
                    raise PoleError(f"negative power of zero for {v}")
                acc = acc * base**e
            total = acc if total is None else total + acc
        if total is None:
            return Frac(0)
        return total

    def variables(self) -> set[VarId]:
        out = set()
        for m in self.terms:
            out.update(v for v, _ in m)
        return out

    # -- presentation --------------------------------------------------------

    def sorted_terms(self):
        def key(item):
            m, _ = item
            return tuple((v.sort_key(), e) for v, e in m)

        return sorted(self.terms.items(), key=key)

    def to_json(self) -> list:
        out = []
        for m, c in self.sorted_terms():
            out.append(
                {
                    "monomial": [[v.family, v.index, e] for v, e in m],
                    "coeff": str(c),
                }
            )
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                f"{v}" + (f"^{e}" if e != 1 else "") for v, e in m
            )
            if mono:
                parts.append(f"({c})*{mono}" if c != 1 else mono)
            else:
                parts.append(f"({c})")
        return " + ".join(parts)


def as_poly(value: Scalar) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Frac)):
        return LaurentPoly.const(value)
    raise TypeError(f"cannot treat {type(value)} as polynomial")


ONE = LaurentPoly.const(1)


def _factor_canonical(p: LaurentPoly) -> tuple[Frac, LaurentPoly]:
    """Scale a factor so its canonically-first coefficient is 1.
    Returns (scale, normalized) with p = scale * normalized."""
    items = p.sorted_terms()
    if not items:
        raise ZeroDivisionError("zero denominator factor")
    c0 = p.constant_term()
    lead = c0 if c0 else items[0][1]
    return lead, LaurentPoly({m: c / lead for m, c in p.terms.items()})


def _factor_key(p: LaurentPoly):
    return tuple(
        (tuple((v.family, v.index, e) for v, e in m), c) for m, c in p.sorted_terms()
    )


class RationalFn:
    """Quotient of a LaurentPoly by a product of factored denominators.

    Denominators are kept factored (no polynomial GCDs); equality is
    tested by cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: tuple = ()):
        # den: tuple of (LaurentPoly factor, positive multiplicity), canonical.
        self.num = num
        self.den = den if num else ()

    @classmethod
    def from_poly(cls, p: Scalar) -> "RationalFn":
        return cls(as_poly(p))

    @classmethod
    def from_den_factor(cls, factor: LaurentPoly, mult: int = 1) -> "RationalFn":
        """1 / factor^mult."""
        scale, norm = _factor_canonical(factor)
        num = LaurentPoly.const(Frac(1) / scale**mult)
        if norm == ONE:
            return cls(num)
        return cls(num, ((norm, mult),))

    @staticmethod
    def _canon_den(factors: dict) -> tuple:
        items = [(p, m) for p, m in factors.values() if m]
        items.sort(key=lambda it: _factor_key(it[0]))
        return tuple(items)

    def _den_map(self) -> dict:
        return {_factor_key(p): (p, m) for p, m in self.den}

    def den_expanded(self) -> LaurentPoly:
        out = ONE
        for p, m in self.den:
            out = out * p**m
        return out

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        a, b = self._den_map(), other._den_map()
        keys = set(a) | set(b)
        common: dict = {}
        num_a = self.num
        num_b = other.num
        for k in keys:
            pa = a.get(k)
            pb = b.get(k)
            poly = (pa or pb)[0]
            ma = pa[1] if pa else 0
            mb = pb[1] if pb else 0
            m = max(ma, mb)
            common[k] = (poly, m)
            if m > ma:
                num_a = num_a * poly ** (m - ma)
            if m > mb:
                num_b = num_b * poly ** (m - mb)
        num = num_a + num_b
        if not num:
            return RationalFn(LaurentPoly.zero())
        return RationalFn(num, self._canon_den(common))

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return RationalFn(LaurentPoly.zero())
        factors = self._den_map()
        for k, (p, m) in other._den_map().items():
            if k in factors:
                factors[k] = (p, factors[k][1] + m)
            else:
                factors[k] = (p, m)
        return RationalFn(self.num * other.num, self._canon_den(factors))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce_rf(other) * self.inverse()

    def inverse(self) -> "RationalFn":
        if not self.num:
            raise ZeroDivisionError("inverting zero")
        # numerator becomes denominator factor(s); old denominator to numerator
        num = ONE
        for p, m in self.den:
            num = num * p**m
        mono = self.num.as_monomial()
        if mono is not None:
            m, c = mono
            inv_mono = LaurentPoly({_mono_pow(m, -1) if m else _EMPTY_MONO: Frac(1) / c})
            return RationalFn(num * inv_mono)
        scale, norm = _factor_canonical(self.num)
        return RationalFn(num * LaurentPoly.const(Frac(1) / scale), ((norm, 1),))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = RationalFn(ONE)
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other) -> bool:
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        # cross multiplication, never string form
        left = self.num * other.den_expanded()
        right = other.num * self.den_expanded()
        return left == right

    def __hash__(self):
        raise TypeError("RationalFn is unhashable (equality is semantic)")

    # -- evaluation ------------------------------------------------------------

    def eval(self, binding: dict):
        num = self.num.eval(binding)
        for p, m in self.den:
            val = p.eval(binding)
            if val == 0:
                raise PoleError(f"pole: denominator factor {p!r} vanishes at binding")
            num = num / val**m
        return num

    def variables(self) -> set[VarId]:
        out = self.num.variables()
        for p, _ in self.den:
            out.update(p.variables())
        return out

    def to_json(self) -> dict:
        return {
            "num": self.num.to_json(),
            "den": [{"factor": p.to_json(), "mult": m} for p, m in self.den],
        }

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        dens = " * ".join(
            f"({p!r})" + (f"^{m}" if m > 1 else "") for p, m in self.den
        )
        return f"({self.num!r}) / [{dens}]"


def _coerce_rf(value):
    if isinstance(value, RationalFn):
        return value
    if isinstance(value, (int, Frac, LaurentPoly)):
        return RationalFn.from_poly(value)
    return NotImplemented


def rf(value: Scalar) -> RationalFn:
    out = _coerce_rf(value)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {type(value)}")
    return out


# ---------------------------------------------------------------------------
# symmetric-function helpers over finite alphabets of ring elements
# ---------------------------------------------------------------------------


def add_x_letter(h: list, x: Scalar) -> None:
    """Add ``x`` to the x alphabet of the prefix ``h`` in place: divide its
    generating function by (1 - x t), the forward recurrence."""
    for i in range(1, len(h)):
        h[i] = h[i] + x * h[i - 1]


def add_y_letter(h: list, y: Scalar) -> None:
    """Add ``y`` to the y alphabet of the prefix ``h`` in place: multiply
    its generating function by (1 - y t), the backward recurrence."""
    for i in range(len(h) - 1, 0, -1):
        h[i] = h[i] - y * h[i - 1]


def h_prefix(k: int, xs: Sequence[Scalar], ys: Sequence[Scalar] = ()) -> list:
    """[h_0(x/y), ..., h_k(x/y)] of the two-alphabet pair x/y.

    The generating function is prod_y (1 - y t) / prod_x (1 - x t): the
    complete homogeneous prefix of ``xs``, then each y, one letter at a
    time.  With ``ys`` empty these are the plain h_i(x).  Entries 0..k do
    not depend on k, so a caller whose alphabets grow one letter at a
    time keeps one prefix and calls ``add_x_letter``/``add_y_letter``.
    """
    h = [1] + [0] * k
    for x in xs:
        add_x_letter(h, x)
    for y in ys:
        add_y_letter(h, y)
    return h


def scale_letters(*groups: Sequence[Sequence[Scalar]]) -> tuple[list, list]:
    """Each group of alphabets over its own common denominator.

    Every number is taken exactly as a Fraction (a float converts exactly).
    When all letters of all groups are numbers, each letter of a group is
    multiplied by that group's L, the lcm of the group's denominators, so
    every alphabet becomes a list of ints; h_a is homogeneous of degree a,
    so h_a(letters) = h_a(L letters) / L^a, and a product of h_a of one
    group and h_b of another is the int product over L_1^a L_2^b.  When
    some letter is not a number (a LaurentPoly or RationalFn), every L is 1
    and no letter is scaled.  Returns (the L of each group, every alphabet
    as a list, in the order given)."""
    if not all(isinstance(v, (int, float, Frac)) for g in groups for a in g for v in a):
        return [1] * len(groups), [list(a) for g in groups for a in g]
    scales, alphabets = [], []
    for g in groups:
        exact = [[Frac(v) for v in a] for a in g]
        scale = math.lcm(*(v.denominator for a in exact for v in a))
        scales.append(scale)
        alphabets += [[v.numerator * (scale // v.denominator) for v in a] for a in exact]
    return scales, alphabets


def supersym_h(m: int, xs: Sequence[Scalar], ys: Sequence[Scalar]):
    """h_m of the two-alphabet pair x/y: sum (-1)^{m-k} h_k(x) e_{m-k}(y).

    Zero for m < 0, one for m = 0.
    """
    return h_prefix(m, xs, ys)[m] if m >= 0 else 0


def supersym_e(m: int, xs: Sequence[Scalar], ys: Sequence[Scalar]):
    """e_m of the pair x/y: sum (-1)^{m-k} e_k(x) h_{m-k}(y).

    By the involution omega, e_m(x/y) = h_m((-y)/(-x)): both have the
    generating function prod_x (1 + x t) / prod_y (1 + y t)."""
    return supersym_h(m, [-y for y in ys], [-x for x in xs])


def unscale(value, denominator: int, degree: int):
    """A homogeneous sum of degree ``degree`` from its value at letters
    scaled into ints (``scale_letters``): the int value over
    ``denominator``, the product of each group's L to the sum's degree in
    that group's letters, as an exact Fraction.  The degree-0 sum h_0 = 1
    stays the int 1, and a symbolic value (every L 1) is returned as it
    is."""
    return Frac(value, denominator) if degree and type(value) is int else value


def theta_h_pair(m: int, top_h: Sequence, bottom_h: Sequence, trunc: int,
                 top_scale: int = 1, bottom_scale: int = 1):
    """sum_{a-b=m, max(a,b)<=trunc} h_a(x1/y1) h_b(x2/y2) from the prefixes
    of the top pair, ``top_h``, and of the bottom pair, ``bottom_h`` (as
    ``h_prefix`` builds them, up to min(trunc, trunc + m) and
    min(trunc, trunc - m)), so that callers build each prefix once.  These
    sums can have infinitely many nonzero terms, so ``trunc`` caps both
    indices.

    Prefixes of letters scaled into ints (``scale_letters``), the top pair's
    by ``top_scale`` = Lt and the bottom pair's by ``bottom_scale`` = Lb,
    hold Lt^a h_a and Lb^b h_b: the sum is then one integer Horner sum in
    Lt Lb and a single Fraction over Lt^hi Lb^(hi - m), hi the largest top
    index; the degree-0 sum h_0 h_0 stays the int 1.  Symbolic prefixes
    (both scales 1) are summed as they are."""
    if abs(m) > trunc:
        return 0
    hi = min(trunc, trunc + m)
    step = top_scale * bottom_scale
    total = 0
    for a in range(max(m, 0), hi + 1):
        total = total * step + top_h[a] * bottom_h[a - m]
    return unscale(total, top_scale**hi * bottom_scale**(hi - m), 2 * hi - m)


# ---------------------------------------------------------------------------
# Schur expansion
# ---------------------------------------------------------------------------

from .partitions import Partition, conjugate  # noqa: E402


@lru_cache(maxsize=None)
def _h_poly(k: int, n: int) -> LaurentPoly:
    """h_k(x_1..x_n) as a polynomial."""
    if k < 0:
        return LaurentPoly.zero()
    alphabet = [X(i) for i in range(1, n + 1)]
    val = h_prefix(k, alphabet)[k]
    return as_poly(val if isinstance(val, LaurentPoly) else LaurentPoly.const(val))


@lru_cache(maxsize=None)
def schur_poly(lam_parts: tuple, n: int) -> LaurentPoly:
    """s_lambda(x_1..x_n) via the Jacobi-Trudi determinant in h's."""
    lam = Partition(lam_parts)
    ell = lam.length()
    if ell == 0:
        return ONE
    if ell > n:
        return LaurentPoly.zero()
    return det_exact([[_h_poly(lam.part(i) - i + j, n) for j in range(1, ell + 1)]
                      for i in range(1, ell + 1)])


LEIBNIZ_MAX_DIM = 8  # 8! = 40320 products; one size more is a hang, not a result


def det_exact(rows: list[list]):
    """Exact determinant of a square matrix.  Rational entries (int and
    Fraction) go through fraction-free elimination; entries of any other
    commutative ring (LaurentPoly, RationalFn, Decimals) through the
    Leibniz expansion, which refuses dimensions above LEIBNIZ_MAX_DIM.
    Both return an int when every entry is an int, a Fraction for other
    rational entries, and the entry itself for a 1x1 matrix."""
    if not rows:
        return Frac(1)
    if len(rows) == 1:
        return rows[0][0]
    if all(type(e) is int or type(e) is Frac for row in rows for e in row):
        return _det_bareiss(rows)
    return _det_leibniz(rows)


def _det_bareiss(rows: list[list]):
    """Bareiss elimination (Math. Comp. 22, 1968) over the integers, after
    scaling each row by the lcm of its denominators; every division is
    exact, so no intermediate Fraction is built."""
    scale = 1
    m = []
    rational = False
    for row in rows:
        den = 1
        for e in row:
            if type(e) is Frac:
                rational = True
                den = math.lcm(den, e.denominator)
        m.append([e * den if type(e) is int else e.numerator * (den // e.denominator)
                  for e in row])
        scale *= den
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return Frac(0) if rational else 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        rk = m[k]
        pivot = rk[k]
        for i in range(k + 1, n):
            ri = m[i]
            a = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pivot * ri[j] - a * rk[j]) // prev
        prev = pivot
    det = sign * m[n - 1][n - 1]
    return Frac(det, scale) if rational else det


def _det_leibniz(rows: list[list]):
    """Leibniz expansion over all permutations: exact for entries in any
    commutative ring.  A product stops multiplying once it is zero."""
    if len(rows) > LEIBNIZ_MAX_DIM:
        raise ValueError(
            f"Leibniz determinant of dimension {len(rows)} exceeds "
            f"LEIBNIZ_MAX_DIM ({LEIBNIZ_MAX_DIM}); only rational entries "
            f"are eliminated at any size"
        )
    total = None
    for perm in itertools.permutations(range(len(rows))):
        prod = rows[0][perm[0]]
        for i in range(1, len(rows)):
            if not prod:
                break
            prod = prod * rows[i][perm[i]]
        term = prod if perm_sign(perm) > 0 else -prod
        total = term if total is None else total + term
    return total


def perm_sign(perm) -> int:
    """Sign of a permutation of range(len(perm)), from its cycle lengths."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        clen = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


class NotSymmetricError(ValueError):
    def __init__(self, witness: int):
        self.witness = witness
        super().__init__(
            f"input not symmetric under swapping x{witness} <-> x{witness + 1}"
        )


class SchurExpansion:
    """Finite map Partition -> coefficient, in n x-variables, valid through
    a stated total x-degree cap."""

    def __init__(self, coeffs: dict, n: int, degree_cap: int):
        self.coeffs = {k: v for k, v in coeffs.items() if v}
        self.n = n
        self.degree_cap = degree_cap

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchurExpansion):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coeffs.get(k, 0) == other.coeffs.get(k, 0) for k in keys)

    def __repr__(self):
        items = ", ".join(f"{k}: {v!r}" for k, v in sorted(self.coeffs.items()))
        return f"SchurExpansion({{{items}}}, n={self.n})"

    def reconstruct(self) -> LaurentPoly:
        total = LaurentPoly.zero()
        for lam, c in self.coeffs.items():
            piece = schur_poly(lam.parts, self.n) * c
            total = total + as_poly(piece) if isinstance(piece, LaurentPoly) else total + piece
        return total


def reciprocal(v):
    """1/v, exact: a Fraction for rationals, else a RationalFn; a float
    gives a float, as float letters do in the other formulas."""
    if isinstance(v, (int, Frac)):
        return Frac(1) / Frac(v)
    if isinstance(v, float):
        return 1.0 / v
    return rf(1) / rf(v)


def _x_exponents(mono: Monomial, n: int) -> tuple | None:
    """Exponent vector of the X-part padded to n, or None if any X
    exponent is negative or index exceeds n."""
    exps = [0] * n
    for v, e in mono:
        if v.family == "X":
            if v.index > n or e < 0:
                return None
            exps[v.index - 1] = e
    return tuple(exps)


def schur_expand(f: LaurentPoly, n: int, degree_cap: int) -> SchurExpansion:
    """Expand a symmetric polynomial in x_1..x_n into Schur polynomials by
    greedy leading-monomial subtraction, through total x-degree
    ``degree_cap``.  Raises NotSymmetricError with the witnessing adjacent
    transposition when the input is not symmetric.
    """
    work = f.truncate_family_degree("X", degree_cap)
    for i in range(1, n):
        swapped = work.swap_vars(VarId("X", i), VarId("X", i + 1))
        if swapped.terms != work.terms:
            raise NotSymmetricError(i)

    coeffs: dict = {}
    guard = 0
    while work.terms:
        guard += 1
        if guard > 100000:
            raise RuntimeError("schur_expand failed to terminate")
        # pick the lexicographically largest x-exponent vector
        best = None
        for mono, c in work.terms.items():
            exps = _x_exponents(mono, n)
            if exps is None:
                raise ValueError(f"monomial {mono} not a polynomial in x_1..x_{n}")
            if best is None or exps > best[0]:
                best = (exps, mono, c)
        exps, mono, _ = best
        lam_parts = tuple(e for e in exps if e)
        if any(exps[i] < exps[i + 1] for i in range(n - 1)):
            raise NotSymmetricError(0)
        lam = Partition(lam_parts)
        # the full coefficient of x^lam (a polynomial in non-x variables)
        coeff = LaurentPoly.zero()
        for m2, c2 in work.terms.items():
            if _x_exponents(m2, n) == exps:
                nonx = tuple((v, e) for v, e in m2 if v.family != "X")
                coeff = coeff + LaurentPoly({nonx: c2})
        coeffs[lam] = coeffs.get(lam, LaurentPoly.zero()) + coeff
        work = work - coeff * schur_poly(lam.parts, n)
    return SchurExpansion(coeffs, n, degree_cap)


def omega_on_expansion(exp: SchurExpansion) -> SchurExpansion:
    """The involution sending s_lambda to s_{lambda'}: conjugate all keys."""
    return SchurExpansion(
        {conjugate(k): v for k, v in exp.coeffs.items()}, exp.n, exp.degree_cap
    )
