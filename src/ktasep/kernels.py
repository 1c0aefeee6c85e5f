"""Exact n-step transition kernels for the four discrete TASEP variants
and the inhomogeneous (canonical) blocking/Bernoulli processes.

Three independent routes compute every kernel:

* ``closed``   -- per-particle closed-form products derived from the
  update rules, chained by the Markov property (the defining route);
* ``operator`` -- noncommutative Schur-operator dynamics, with the
  geometric series over h_k words resummed into exact resolvents;
* ``tableau``  -- (dual/weak/canonical) Grothendieck generating functions
  with the case-specific parameter substitutions.

Cases: A geometric pushing, B Bernoulli blocking, C geometric blocking,
D Bernoulli pushing, CANONICAL_C/CANONICAL_B with position-dependent
rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import itemgetter
from typing import Callable

from .conventions import IndexConvention, PINNED_CONVENTIONS
from .exactalg import Frac, LaurentPoly, RationalFn, Scalar, is_zero_scalar, reciprocal
from .operators import OpParams, PartitionVector, U_step, affine, resolvent, u_step
from .partitions import Partition, SkewShape, conjugate, partitions_between
from . import tableaux


class CaseId(Enum):
    A = "A"          # geometric pushing
    B = "B"          # Bernoulli blocking
    C = "C"          # geometric blocking
    D = "D"          # Bernoulli pushing
    CANONICAL_C = "CanonicalC"
    CANONICAL_B = "CanonicalB"

    @property
    def geometric(self) -> bool:
        return self in (CaseId.A, CaseId.C, CaseId.CANONICAL_C)

    @property
    def pushing(self) -> bool:
        return self in (CaseId.A, CaseId.D)

    @property
    def canonical(self) -> bool:
        return self in (CaseId.CANONICAL_C, CaseId.CANONICAL_B)


def parse_case(name: str) -> CaseId:
    for c in CaseId:
        if c.value.lower() == name.lower():
            return c
    raise ValueError(f"unknown case {name!r}")


# ---------------------------------------------------------------------------
# parameter rules, for exact bindings and samplers alike: they compare with
# <, <= and >= only, so one rule reads Fractions and floats
# ---------------------------------------------------------------------------


class ConstraintError(ValueError):
    """Parameters outside the domain on which a process is defined."""


def check_rate_count(ell: int, count: int) -> None:
    """ell particles need ell rates: a short list is not padded with
    frozen particles."""
    if count < ell:
        raise ConstraintError(f"pi_{count + 1} missing: {ell} particles need {ell} rates, "
                              f"got {count}")


def check_rate_x(case: CaseId, i: int, xi, rates) -> None:
    """Raise ConstraintError naming the first (j, pi_j) of ``rates`` whose
    pi_j x_i leaves [0, 1) in a geometric case, or whose rho_j x_i is
    negative in a Bernoulli one."""
    geometric = case.geometric
    for j, r in rates:
        v = r * xi
        if geometric:
            if not (0 <= v < 1):
                raise ConstraintError(f"pi_{j}*x_{i} = {v} outside [0, 1)")
        elif v < 0:
            raise ConstraintError(f"rho_{j}*x_{i} = {v} negative")


def check_alpha(k: int, a, xs, low):
    """alpha_k = a after checking CanonicalC's rule at position k: alpha_k
    x_i > -1 for every (i, x_i) of ``xs`` and alpha_k + pi_j >= 0 for the
    smallest rate ``low`` = (j, pi_j)."""
    for i, xi in xs:
        if a * xi <= -1:
            raise ConstraintError(f"alpha_{k}*x_{i} = {a * xi} <= -1")
    j, r = low
    if a + r < 0:
        raise ConstraintError(f"alpha_{k}+pi_{j} = {a + r} < 0")
    return a


def check_inverse_rate(j: int, r) -> None:
    """The pushing formulas' letter 1/pi_j.  A zero rate is admissible (the
    particle is frozen), so its error is a ValueError, not a ConstraintError."""
    if is_zero_scalar(r):
        raise ValueError(f"pi_{j} = 0: the pushing formulas need 1/pi_{j}")


@dataclass
class ParamBinding:
    """Numeric (exact rational) or symbolic parameter assignment.

    ``x`` are time parameters, ``rates`` the per-particle pi_j (rho_j for
    Bernoulli cases).  ``alpha``/``beta_pos`` are position closures for
    the canonical processes, indexed from position 0.
    """

    x: list
    rates: list
    alpha: Callable[[int], Scalar] | None = None
    beta_pos: Callable[[int], Scalar] | None = None

    def x_of(self, i: int):
        return self.x[i - 1]

    def rate(self, j: int):
        return self.rates[j - 1] if j - 1 < len(self.rates) else Frac(0)

    def inverse_rate(self, j: int):
        """1/pi_j, the letter that the pushing cases' operator, tableau and
        determinant formulas read (``check_inverse_rate``)."""
        r = self.rate(j)
        check_inverse_rate(j, r)
        return reciprocal(r)

    def alpha_of(self, k: int):
        return self.alpha(k) if self.alpha is not None else Frac(0)

    def beta_pos_of(self, k: int):
        return self.beta_pos(k) if self.beta_pos is not None else Frac(0)

    @property
    def n(self) -> int:
        return len(self.x)

    @classmethod
    def numeric(cls, x, rates, alpha=None, beta_pos=None) -> "ParamBinding":
        def closure(src):
            if src is None or callable(src):
                return src
            if isinstance(src, dict):
                return lambda k: Frac(src.get(k, 0))
            return lambda k: Frac(src[k]) if k < len(src) else Frac(0)

        return cls(
            [Frac(v) for v in x],
            [Frac(v) for v in rates],
            closure(alpha),
            closure(beta_pos),
        )

    def check_admissible(self, case: CaseId, ell: int, positions: range | None = None):
        """Raise ConstraintError naming the violated inequality: the
        parameter rules at every x_i and rate, and CanonicalC's alpha rule
        at each position of ``positions`` (0..63 by default)."""
        rates = [(j, self.rate(j)) for j in range(1, ell + 1)]
        xs = [(i, self.x_of(i)) for i in range(1, self.n + 1)]
        for i, xi in xs:
            check_rate_x(case, i, xi, rates)
        if case is CaseId.CANONICAL_C and self.alpha is not None:
            low = min(rates, key=itemgetter(1), default=(0, 0))
            for k in positions or range(0, 64):
                check_alpha(k, self.alpha_of(k), xs, low)


@dataclass
class KernelQuery:
    case: CaseId
    n: int
    mu: Partition
    lam: Partition
    ell: int
    binding: ParamBinding
    route: str = "closed"  # closed | operator | tableau

    def __post_init__(self):
        if self.lam.length() > self.ell or (self.lam.parts and self.lam.parts[0] > self.ell):
            # Thm hypothesis: ell must dominate both the length and width
            raise ValueError("require ell >= len(lam) and ell >= lam_1")


@dataclass
class KernelTable:
    case: CaseId
    n: int
    mu: Partition
    ell: int
    probs: dict  # Partition -> exact probability
    tail: Frac   # mass outside the lambda_1 cap (0 for Bernoulli cases)

    def total(self):
        return sum(self.probs.values(), Frac(0)) + self.tail

    def prob(self, lam: Partition):
        return self.probs.get(lam, Frac(0))


# ---------------------------------------------------------------------------
# single-step tables (the defining route) and Markov chaining
# ---------------------------------------------------------------------------


def _row_options(
    case: CaseId, mu: Partition, lam: list, j: int, xi, binding: ParamBinding, cap: int
):
    """Row j's targets with their masses, given the rows of lam that the
    case's order has already placed."""
    start, rate = mu.part(j), binding.rate(j)
    if case is CaseId.A:
        # particle j + 1 moves first and pushes particle j up to lam_{j+1}
        q = rate * xi
        mass = 1 - q
        for target in range(max(start, lam[j + 1]), cap + 1):
            yield target, mass
            mass = mass * q
    elif case is CaseId.D:
        # particle j + 1 moves first; landing on start + 1 it pushes
        # particle j there with mass 1, else particle j steps by itself
        if lam[j + 1] > start:
            yield start + 1, Frac(1)
            return
        stay = reciprocal(1 + rate * xi)
        yield start, stay
        yield start + 1, rate * xi * stay
    elif case is CaseId.B or case is CaseId.CANONICAL_B:
        # particle j - 1 moves first; a particle on its target is blocked
        if j > 1 and start == lam[j - 1]:
            yield start, Frac(1)
            return
        shift = binding.beta_pos_of(start) if case is CaseId.CANONICAL_B else 0
        succ = (rate + shift) * xi * reciprocal(1 + rate * xi)
        yield start, 1 - succ
        yield start + 1, succ
    else:
        # particle j > 1 stops at mu_{j-1}: it lands short of that cap with
        # its jump mass, and on it with the mass of reaching it
        top = mu.part(j - 1) if j > 1 else cap
        reach: Scalar = Frac(1)
        for k in range(start, top + 1):
            if k == top and j > 1:
                yield k, reach
                return
            # position k stops particle j, or lets it pass
            stop, go = 1 - rate * xi, rate * xi
            if case is CaseId.CANONICAL_C:
                w = reciprocal(1 + binding.alpha_of(k) * xi)
                stop, go = stop * w, (binding.alpha_of(k) + rate) * xi * w
            yield k, reach * stop
            reach = reach * go


def single_step_table(
    case: CaseId,
    mu: Partition,
    time_index: int,
    binding: ParamBinding,
    ell: int,
    cap: int,
) -> KernelTable:
    """Every target one step reaches from mu, with its exact probability.

    Particles update in sequence and each reads only its neighbour, so a
    step is a product of per-row masses, placed by one depth-first pass
    over rows in the case's dependency order: A and D from row ell up (a
    particle may be pushed by the one behind), the others from row 1 down.
    The pass carries the prefix product and drops a branch at a zero row
    mass, so every target it lists is reachable.  Geometric rows stop at
    the cap, and the tail is the mass beyond it."""
    if cap < mu.part(1):
        raise ValueError(f"cap {cap} smaller than mu_1 = {mu.part(1)}")
    xi, probs = binding.x_of(time_index), {}
    order = range(ell, 0, -1) if case.pushing else range(1, ell + 1)
    lam = [0] * (ell + 2)

    def place(k: int, prefix) -> None:
        if k == ell:
            probs[Partition(lam[1:-1])] = prefix
            return
        j = order[k]
        for target, mass in _row_options(case, mu, lam, j, xi, binding, cap):
            if not is_zero_scalar(mass):
                lam[j] = target
                place(k + 1, prefix * mass)

    if mu.length() <= ell:  # else mu has a row past the last particle: no target
        place(0, Frac(1))
    tail = 1 - sum(probs.values(), Frac(0)) if case.geometric else Frac(0)
    return KernelTable(case, 1, mu, ell, probs, tail)


def single_step_closed_form(
    case: CaseId,
    mu: Partition,
    lam: Partition,
    time_index: int,
    binding: ParamBinding,
    ell: int,
):
    """Exact one-step transition probability from the per-particle update
    rules: one entry of the smallest ``single_step_table`` that holds lam.
    Unreachable targets give probability 0."""
    cap = max(lam.part(1), mu.part(1))
    return single_step_table(case, mu, time_index, binding, ell, cap).prob(lam)


def chain(
    case: CaseId,
    n: int,
    mu: Partition,
    binding: ParamBinding,
    ell: int,
    cap: int,
) -> KernelTable:
    """n-fold composition of single-step tables, restricted to lam_1 <= cap;
    geometric cases report the exact dropped tail mass."""
    if cap < mu.part(1):
        raise ValueError(f"cap {cap} smaller than mu_1 = {mu.part(1)}")
    current = {mu: Frac(1)}
    tail = Frac(0)
    for i in range(1, n + 1):
        nxt: dict = {}
        for nu, w in current.items():
            step = single_step_table(case, nu, i, binding, ell, cap)
            tail = tail + w * step.tail
            for lam, p in step.probs.items():
                if lam.part(1) > cap:
                    # positions never decrease, so this mass can only end
                    # outside the cap: it belongs to the tail exactly
                    tail = tail + w * p
                    continue
                cur = nxt.get(lam)
                add = w * p
                nxt[lam] = add if cur is None else cur + add
        current = nxt
    return KernelTable(case, n, mu, ell, current, tail)


# ---------------------------------------------------------------------------
# operator route
# ---------------------------------------------------------------------------


def _op_params_for(case: CaseId, binding: ParamBinding, ell: int) -> OpParams:
    # Rates beyond the particle count are zero: the process has exactly
    # ell particles regardless of how long the supplied rate list is.
    def rate(j: int):
        return binding.rate(j) if j <= ell else Frac(0)

    if case is CaseId.A or case is CaseId.D:
        # one reciprocal per row, however many pushes read it
        return OpParams.bound(None, lru_cache(maxsize=None)(binding.inverse_rate))
    if case is CaseId.C or case is CaseId.B:
        return OpParams.bound(None, lambda j: rate(j + 1))
    if case is CaseId.CANONICAL_C:
        return OpParams(
            alpha=lambda k: binding.alpha_of(k) if k >= 1 else Frac(0),
            beta=lambda j: rate(j + 1),
        )
    if case is CaseId.CANONICAL_B:
        # acts on conjugate shapes: alpha indexed by particle count,
        # beta by position
        return OpParams(
            alpha=lambda k: rate(k + 1) if k >= 1 else Frac(0),
            beta=lambda j: binding.beta_pos_of(j),
        )
    raise ValueError(case)


def _apply_time_step(
    case: CaseId,
    vec: PartitionVector,
    xi,
    params: OpParams,
    rows: int,
    size_cap: int,
    width: float,
) -> PartitionVector:
    """One time-evolution operator: sum_k x^k h_k (geometric) or e_k
    (Bernoulli) of the case's operator family, resummed as an ordered
    product of resolvents (descending j) or affine factors (ascending j).
    CANONICAL_B evaluates G_{lam'\\mu'} through the e^H pairing on
    conjugate shapes, which is the same h_k resolvent product."""
    step = u_step if case.pushing else U_step
    if case.geometric or case is CaseId.CANONICAL_B:
        for j in range(rows, 0, -1):
            vec = resolvent(step, j, vec, xi, params, size_cap, width)
    else:
        for j in range(1, rows + 1):
            vec = affine(step, j, vec, xi, params, size_cap, width)
    return vec


def operator_table(
    case: CaseId,
    n: int,
    mu: Partition,
    binding: ParamBinding,
    ell: int,
    size_cap: int,
    width: float = math.inf,
) -> dict:
    """All transition probabilities from mu to lambda with |lambda| <=
    size_cap, len(lambda) <= ell and lambda_1 <= width, by a single
    operator evolution, times the overall factor.  The
    evolution stops every chain past size_cap and, outside CanonicalB's
    conjugate picture, past width: sizes and row 1 only grow, so no
    dropped term returns."""
    if case is CaseId.CANONICAL_C and not is_zero_scalar(binding.alpha_of(0)):
        raise ValueError("operator route for CanonicalC requires alpha(0) = 0")
    if case is CaseId.CANONICAL_B and not is_zero_scalar(binding.beta_pos_of(0)):
        raise ValueError("operator route for CanonicalB requires beta_pos(0) = 0")
    xs = [binding.x_of(i) for i in range(1, n + 1)]
    conj = case is CaseId.CANONICAL_B
    if conj:
        # CanonicalB evolves conjugate shapes.  One row beyond the widest
        # target keeps every untracked row uniformly blocked, so the finite
        # product of (1 - beta_j x) over the tracked rows is exact.  Row 1
        # of a conjugate shape is len(lambda) <= ell, which bounds it.
        start, rows, row1_cap = conjugate(mu), size_cap + 1, math.inf
        factor = time_factor(case, binding, (1,), xs)
        for j in range(1, rows):
            for x in xs:
                factor = factor * (1 - binding.beta_pos_of(j) * x)
    else:
        start, rows, row1_cap = mu, ell, width
        factor = time_factor(case, binding, range(1, ell + 1), xs)
    params = _op_params_for(case, binding, ell)
    vec = PartitionVector.basis(start)
    for x in xs:
        vec = _apply_time_step(case, vec, x, params, rows, size_cap, row1_cap)
    out = {}
    for target, coeff in vec.terms.items():
        lam = conjugate(target) if conj else target
        if lam.length() <= ell and lam.part(1) <= width:
            out[lam] = coeff * factor * rate_monomial(case, mu, lam, binding, ell)
    return out


def kernel_operator_route(
    case: CaseId,
    n: int,
    mu: Partition,
    lam: Partition,
    binding: ParamBinding,
    ell: int,
):
    """Kernel via the noncommutative-operator time evolution: one entry of
    the smallest ``operator_table`` that holds lam."""
    table = operator_table(case, n, mu, binding, ell, max(lam.size(), mu.size()), lam.part(1))
    return table.get(lam, Frac(0))


# ---------------------------------------------------------------------------
# the overall factor shared by the operator, tableau and multipoint formulas
# ---------------------------------------------------------------------------


def rate_monomial(case: CaseId, mu: Partition, lam: Partition, binding: ParamBinding, ell: int):
    """pi^{lam/mu} (rho^{lam/mu} for Bernoulli cases) over rows 1..ell.  The
    canonical cases shift each box's rate by the position rate of its
    column: (alpha_{c-1} + pi_r) for CanonicalC, (beta_{c-1} + rho_r) for
    CanonicalB."""
    shift = {CaseId.CANONICAL_C: binding.alpha_of, CaseId.CANONICAL_B: binding.beta_pos_of}.get(case)
    out: Scalar = Frac(1)
    for r in range(1, ell + 1):
        rate, lo, hi = binding.rate(r), mu.part(r), lam.part(r)
        if shift is not None:
            for c in range(lo, hi):
                out = out * (shift(c) + rate)
        elif hi > lo:
            out = out * rate**(hi - lo)
    return out


def time_factor(case: CaseId, binding: ParamBinding, js, xs):
    """prod_{j in js, x in xs} (1 - r_j x) for the geometric cases, and
    prod 1/(1 + r_j x) for the Bernoulli cases."""
    out: Scalar = Frac(1)
    for j in js:
        r = binding.rate(j)
        for x in xs:
            out = out * (1 - r * x) if case.geometric else out * reciprocal(1 + r * x)
    return out


# ---------------------------------------------------------------------------
# tableau route
# ---------------------------------------------------------------------------


def _tableau_letters(case: CaseId, binding: ParamBinding, ell: int) -> tableaux.Letters:
    """The binding's value of each letter the case's tableau sum reads.
    Rates beyond the particle count read as zero."""
    rate = lambda j: binding.rate(j) if j <= ell else Frac(0)
    shifted = lambda j: rate(j + 1)
    inverse = binding.inverse_rate

    def unread(j: int):
        raise ValueError(f"case {case} reads no such tableau letter")

    alpha = {CaseId.D: inverse, CaseId.B: shifted, CaseId.CANONICAL_B: shifted,
             CaseId.CANONICAL_C: binding.alpha_of}.get(case, unread)
    beta = {CaseId.A: inverse, CaseId.C: shifted, CaseId.CANONICAL_C: shifted,
            CaseId.CANONICAL_B: binding.beta_pos_of}.get(case, unread)
    return tableaux.Letters(binding.x_of, alpha, beta)


def kernel_tableau_route(
    case: CaseId,
    n: int,
    mu: Partition,
    lam: Partition,
    binding: ParamBinding,
    ell: int,
    convention: IndexConvention = PINNED_CONVENTIONS.index,
):
    """Kernel via the Grothendieck-type generating functions of Thm-1.1
    shape: the case's tableau sum (on conjugate shapes for B, D and
    CanonicalB), summed at the binding's letter values, times the overall
    factor."""
    xs = [binding.x_of(i) for i in range(1, n + 1)]
    alpha0 = binding.alpha_of(0) if case is CaseId.CANONICAL_C else Frac(0)
    if n > 1 and not is_zero_scalar(alpha0):
        raise ValueError("tableau route for CanonicalC with n>1 needs alpha(0)=0")
    if case is CaseId.CANONICAL_B and not is_zero_scalar(binding.beta_pos_of(0)):
        raise ValueError("tableau route for CanonicalB needs beta_pos(0)=0")
    if case.pushing and not lam.contains(mu):
        return Frac(0)
    if case in (CaseId.B, CaseId.D, CaseId.CANONICAL_B):
        outer, inner = conjugate(lam), conjugate(mu)
    else:
        outer, inner = lam, mu
    letters = _tableau_letters(case, binding, ell)
    if case is CaseId.A:
        g = tableaux.gen_g(SkewShape(outer, inner), n, letters=letters)
    elif case is CaseId.D:
        g = tableaux.gen_j(SkewShape(outer, inner), n, letters=letters)
    else:
        alpha_on, beta_on = case is not CaseId.C, case is not CaseId.B
        g = tableaux.gen_G_doubleslash(
            outer, inner, n, alpha_on, beta_on, convention, letters=letters
        )
    js = range(1, ell + 1) if case.pushing else (1,)
    val = g * rate_monomial(case, mu, lam, binding, ell) * time_factor(case, binding, js, xs)
    if not is_zero_scalar(alpha0) and mu.length() < ell:
        # the leading particle at position 0 (row len(mu) + 1) carries the
        # 1/(1 + alpha_0 x) of its start, which G// leaves out
        val = val * reciprocal(1 + alpha0 * xs[0])
    return val


# ---------------------------------------------------------------------------
# public kernel dispatch
# ---------------------------------------------------------------------------


def kernel(query: KernelQuery):
    """Exact transition probability for the query, by the selected route."""
    case, n, mu, lam = query.case, query.n, query.mu, query.lam
    if n == 0:
        return Frac(1) if mu == lam else Frac(0)
    if query.route == "closed":
        cap = max(lam.part(1), mu.part(1))
        table = chain(case, n, mu, query.binding, query.ell, cap)
        return table.prob(lam)
    if query.route == "operator":
        return kernel_operator_route(case, n, mu, lam, query.binding, query.ell)
    if query.route == "tableau":
        return kernel_tableau_route(case, n, mu, lam, query.binding, query.ell)
    raise ValueError(f"unknown route {query.route}")


# ---------------------------------------------------------------------------
# normalization identity (skew Pieri specialization)
# ---------------------------------------------------------------------------


def normalization_identity(mu: Partition, n: int, degree_cap: int):
    """Residual of
    sum_lam G_{lam\\mu}(x_n; beta) pi^lam = prod_i (1-pi_1 x_i)^{-1} pi^mu
    with beta_j = pi_{j+1}, both sides expanded through total x-degree
    ``degree_cap``.  Returns the exact difference (zero iff identity holds
    through the cap)."""
    from .exactalg import P as Pvar, X as Xvar, as_poly

    lhs = LaurentPoly.zero()
    rows, size = mu.length() + n, degree_cap + mu.size()
    for lam in partitions_between([mu.part(j) for j in range(1, rows + 1)], [size] * rows):
        if lam.size() > size:
            continue
        g = tableaux.gen_G_doubleslash(lam, mu, n, False, True, PINNED_CONVENTIONS.index)
        g = as_poly(g) if isinstance(g, (int, Frac)) else g
        if isinstance(g, RationalFn):
            g = g.as_poly_if_possible()
        # substitute beta_j -> pi_{j+1}
        bvars = [v for v in g.variables() if v.family == "B"]
        g = g.substitute({v: Pvar(v.index + 1) for v in bvars})
        g = as_poly(g)
        mono = LaurentPoly.const(1)
        for r in range(1, lam.length() + 1):
            mono = mono * Pvar(r) ** lam.part(r)
        lhs = lhs + (mono * g).truncate_family_degree("X", degree_cap)
    rhs = LaurentPoly.const(1)
    for r in range(1, mu.length() + 1):
        rhs = rhs * Pvar(r) ** mu.part(r)
    geo = LaurentPoly.const(1)
    for i in range(1, n + 1):
        series = LaurentPoly.zero()
        for k in range(degree_cap + 1):
            series = series + (Pvar(1) * Xvar(i)) ** k
        geo = (geo * series).truncate_family_degree("X", degree_cap)
    rhs = rhs * geo
    return (lhs - rhs).truncate_family_degree("X", degree_cap)

