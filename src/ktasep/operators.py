"""Noncommutative Schur operators on the free module over partitions.

Blocking operators U_i add a box to row i when legal and otherwise pick up
a beta factor; pushing operators u_j add a box to row j, pushing the rows
above when needed, with an alpha-indexed recursion for longer waits.
Noncommutative e_k/h_k words encode one Bernoulli/geometric update round.
Each family's action on one partition is one step (``U_step``, and
``u_step`` for alpha = 0); ``apply_U``, ``PushEvaluator`` and the
``resolvent``/``affine`` factors of a time step are built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .exactalg import A, B, Frac, Scalar, reciprocal
from .partitions import Partition, push_closure


class PartitionVector:
    """Finite formal linear combination of partitions."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def basis(cls, p: Partition) -> "PartitionVector":
        return cls({p: Frac(1)})

    def add_term(self, p: Partition, coeff) -> None:
        cur = self.terms.get(p)
        new = coeff if cur is None else cur + coeff
        if not new:
            self.terms.pop(p, None)
        else:
            self.terms[p] = new

    def __add__(self, other: "PartitionVector") -> "PartitionVector":
        out = PartitionVector(dict(self.terms))
        for p, c in other.terms.items():
            out.add_term(p, c)
        return out

    def __sub__(self, other: "PartitionVector") -> "PartitionVector":
        out = PartitionVector(dict(self.terms))
        for p, c in other.terms.items():
            out.add_term(p, -c)
        return out

    def scale(self, c) -> "PartitionVector":
        if not c:
            return PartitionVector()
        return PartitionVector({p: cc * c for p, cc in self.terms.items()})

    def coeff(self, p: Partition):
        return self.terms.get(p, Frac(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartitionVector):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        for k in keys:
            a = self.terms.get(k, Frac(0))
            b = other.terms.get(k, Frac(0))
            d = a - b
            if d:
                return False
        return True

    def __repr__(self):
        items = " + ".join(f"({c!r})*{p}" for p, c in sorted(self.terms.items()))
        return f"PV[{items or '0'}]"


@dataclass
class OpParams:
    """Parameter environment: alpha indexed by position value, beta by row.

    alpha(0) defaults to 0, matching the convention lambda_0 = infinity,
    alpha_0 = 0; a case may override it (the conjugate Bernoulli process
    needs alpha_0 = rho_1)."""

    alpha: Callable[[int], Scalar]
    beta: Callable[[int], Scalar]
    _neg_alpha: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def neg_alpha(self, k: int) -> Scalar:
        """-alpha_k, negated once per k however many steps read it."""
        d = self._neg_alpha.get(k)
        if d is None:
            a = self.alpha(k)
            d = self._neg_alpha[k] = -a if a else a
        return d

    @classmethod
    def symbolic(cls) -> "OpParams":
        return cls(
            alpha=lambda k: A(k) if k >= 1 else Frac(0),
            beta=lambda j: B(j),
        )

    @classmethod
    def symbolic_zero_alpha(cls) -> "OpParams":
        return cls(alpha=lambda k: Frac(0), beta=lambda j: B(j))

    @classmethod
    def bound(cls, alpha_vals, beta_vals) -> "OpParams":
        """alpha_vals / beta_vals: callables or dicts of exact values."""

        def mk(src, default):
            if callable(src):
                return src
            if src is None:
                return lambda i: default
            return lambda i: src.get(i, default) if isinstance(src, dict) else src[i]

        return cls(alpha=mk(alpha_vals, Frac(0)), beta=mk(beta_vals, Frac(0)))


_ZERO, _ONE = Frac(0), Frac(1)


def _times(w, c):
    """w * c for a step's successor coefficient c, which is the shared
    ``_ONE`` for every blocking step and every single-row push: that
    product is skipped."""
    return w if c is _ONE else w * c


def U_step(i: int, lam: Partition, params: OpParams) -> tuple:
    """U_i e_lam = d e_lam + c e_next as (d, next, c): an addable box gives
    d = -alpha_{lam_i}, next = lam + e_i and c = 1; a row blocked by row
    i-1 gives d = beta_{i-1} and no next."""
    if i < 1:
        raise ValueError("row index must be >= 1")
    here = lam.part(i)
    if i > 1 and here == lam.part(i - 1):
        return params.beta(i - 1), None, None
    parts = list(lam.padded(max(len(lam.parts), i)))
    parts[i - 1] += 1
    return params.neg_alpha(here), Partition(parts), _ONE


def _push(j: int, lam: Partition, params: OpParams) -> tuple:
    """The push closure of lam + e_j, the product of beta over the pushed
    rows, and the lowest raised row k (rows k..j gain a box)."""
    nxt, pushed = push_closure(lam, j)
    c: Scalar = _ONE
    for r in pushed:
        b = params.beta(r)
        c = b if c is _ONE else c * b
    return nxt, c, pushed[0] if pushed else j


def u_step(j: int, lam: Partition, params: OpParams) -> tuple:
    """The alpha = 0 pushing operator as (d, next, c): d = 0, next the push
    closure of lam + e_j, c the product of beta over the pushed rows."""
    nxt, c, _ = _push(j, lam, params)
    return _ZERO, nxt, c


Step = Callable[[int, Partition, OpParams], tuple]


def apply_U(i: int, vec: PartitionVector, params: OpParams) -> PartitionVector:
    """Blocking operator U_i: kappa_i + Theta_i, where Theta picks up
    -alpha_{lambda_i} when the box is addable and beta_{i-1} when row i is
    blocked by row i-1."""
    out = PartitionVector()
    for lam, c in vec.terms.items():
        d, nxt, cc = U_step(i, lam, params)
        if nxt is not None:
            out.add_term(nxt, _times(c, cc))
        if d:
            out.add_term(lam, c * d)
    return out


def resolvent(
    step: Step,
    j: int,
    vec: PartitionVector,
    x,
    params: OpParams,
    size_cap: int,
    width: float = math.inf,
) -> PartitionVector:
    """(1 - x T_j)^{-1} vec for the operator T_j given by ``step``: walk
    each successor chain, resumming every diagonal d into 1/(1 - d x).
    Exact on partitions with |lam| <= size_cap and lam_1 <= width: sizes
    and row 1 grow along a chain, so nothing past either bound comes
    back."""
    out = PartitionVector()
    for lam, w in vec.terms.items():
        while True:
            d, nxt, c = step(j, lam, params)
            if d:
                w = w * reciprocal(1 - d * x)
            out.add_term(lam, w)
            if nxt is None or nxt.size() > size_cap or nxt.part(1) > width:
                break
            lam, w = nxt, _times(w * x, c)
    return out


def affine(
    step: Step,
    j: int,
    vec: PartitionVector,
    x,
    params: OpParams,
    size_cap: int,
    width: float = math.inf,
) -> PartitionVector:
    """(1 + x T_j) vec for the operator T_j given by ``step``, on
    partitions with |lam| <= size_cap and lam_1 <= width."""
    out = PartitionVector()
    for lam, w in vec.terms.items():
        d, nxt, c = step(j, lam, params)
        out.add_term(lam, w * (1 + d * x) if d else w)
        if nxt is not None and nxt.size() <= size_cap and nxt.part(1) <= width:
            out.add_term(nxt, _times(w * x, c))
    return out


class PushEvaluator:
    """Evaluates pushing operators u_j with an explicit size cap on
    retained partitions; memoizes single-basis applications."""

    def __init__(self, params: OpParams, cap: int):
        self.params = params
        self.cap = cap
        self._memo: dict = {}

    def apply_basis(self, j: int, mu: Partition) -> dict:
        key = (j, mu.parts)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        nu, coeff, k = _push(j, mu, self.params)
        out: dict = {}
        if nu.size() <= self.cap:
            out[nu] = coeff
            a_val = self.params.alpha(mu.part(j) + 1)
            if a_val:
                for i in range(k, j + 1):
                    c: Scalar = a_val
                    for a in range(k, i):
                        c = c * (a_val + self.params.beta(a))
                    for a in range(i, j):
                        c = c * self.params.beta(a)
                    if nu.size() + 1 <= self.cap:
                        for p, cc in self.apply_basis(i, nu).items():
                            cur = out.get(p)
                            new = c * cc if cur is None else cur + c * cc
                            if not new:
                                out.pop(p, None)
                            else:
                                out[p] = new
        self._memo[key] = out
        return out

    def apply(self, j: int, vec: PartitionVector) -> PartitionVector:
        out = PartitionVector()
        for mu, c in vec.terms.items():
            for p, cc in self.apply_basis(j, mu).items():
                out.add_term(p, c * cc)
        return out


def apply_u(
    j: int, vec: PartitionVector, cap: int, params: OpParams
) -> PartitionVector:
    """One pushing operator application, truncated to partitions of size
    <= cap.  The cap must leave room for at least one added box."""
    if vec.terms and cap < min(p.size() for p in vec.terms) + 1:
        raise ValueError(f"cap {cap} must exceed |mu|+1")
    return PushEvaluator(params, cap).apply(j, vec)


OpApply = Callable[[int, PartitionVector], PartitionVector]


def u_family(params: OpParams, cap: int) -> OpApply:
    ev = PushEvaluator(params, cap)
    return lambda j, vec: ev.apply(j, vec)


def U_family(params: OpParams) -> OpApply:
    return lambda i, vec: apply_U(i, vec, params)


def noncomm_h(k: int, op: OpApply, ell: int, vec: PartitionVector) -> PartitionVector:
    """h_k of the operator family: sum over weakly decreasing application
    sequences of length k with indices <= ell (the largest index acts
    first)."""
    if k == 0:
        return vec

    def rec(v: PartitionVector, remaining: int, hi: int) -> PartitionVector:
        if remaining == 0:
            return v
        total = PartitionVector()
        for j in range(1, hi + 1):
            total = total + rec(op(j, v), remaining - 1, j)
        return total

    return rec(vec, k, ell)


def noncomm_e(k: int, op: OpApply, ell: int, vec: PartitionVector) -> PartitionVector:
    """e_k of the operator family: sum over strictly increasing application
    sequences of length k with indices <= ell (the smallest index acts
    first)."""
    if k == 0:
        return vec

    def rec(v: PartitionVector, remaining: int, lo: int) -> PartitionVector:
        if remaining == 0:
            return v
        total = PartitionVector()
        for j in range(lo, ell - remaining + 2):
            total = total + rec(op(j, v), remaining - 1, j + 1)
        return total

    return rec(vec, k, 1)


def apply_word(word: list[int], op: OpApply, vec: PartitionVector) -> PartitionVector:
    """Apply a word of operator indices right-to-left (matching the
    paper-style composition order: the last index acts first)."""
    for j in reversed(word):
        vec = op(j, vec)
    return vec


# ---------------------------------------------------------------------------
# Knuth relation machinery
# ---------------------------------------------------------------------------


@dataclass
class KnuthViolation:
    relation: str
    indices: tuple
    start: Partition
    lhs: PartitionVector
    rhs: PartitionVector


@dataclass
class KnuthReport:
    family: str
    strong: bool
    max_index: int
    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return not self.violations


def _relation_instances(max_index: int, strong: bool):
    gap = 1 if strong else 2
    for i in range(1, max_index + 1):
        for j in range(1, max_index + 1):
            for k in range(1, max_index + 1):
                if i >= j > k and i - k >= gap:
                    yield ("right", (i, j, k), [j, i, k], [j, k, i])
                if i > j >= k and i - k >= gap:
                    yield ("left", (i, j, k), [i, k, j], [k, i, j])
    for i in range(1, max_index):
        # (t_i + t_{i+1}) t_{i+1} t_i = t_{i+1} t_i (t_i + t_{i+1})
        yield ("weak_sum", (i,), None, None)


def check_weak_knuth(
    op: OpApply,
    family: str,
    basis: list[Partition],
    max_index: int,
    strong: bool = False,
) -> KnuthReport:
    """Check the (weak or strong) Knuth relations on every basis partition,
    collecting exact counterexamples."""
    report = KnuthReport(family=family, strong=strong, max_index=max_index)
    for name, idx, lword, rword in _relation_instances(max_index, strong):
        for p in basis:
            v = PartitionVector.basis(p)
            if name == "weak_sum":
                (i,) = idx
                base = op(i, v)
                base = op(i + 1, base)
                lhs = op(i, base) + op(i + 1, base)
                mixed = op(i, v) + op(i + 1, v)
                rhs = op(i + 1, op(i, mixed))
            else:
                lhs = apply_word(lword, op, v)
                rhs = apply_word(rword, op, v)
            report.checked += 1
            if lhs != rhs:
                report.violations.append(
                    KnuthViolation(name, idx, p, lhs, rhs)
                )
    return report
