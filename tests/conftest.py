import sys
from fractions import Fraction as F
from functools import cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ktasep import tableaux  # noqa: E402
from ktasep.conventions import IndexConvention  # noqa: E402
from ktasep.exactalg import A, B, LaurentPoly, X  # noqa: E402
from ktasep.kernels import ParamBinding  # noqa: E402


def make_binding(n=1, seed=0, canonical=True):
    """Seeded admissible rational binding: pi_j x_i in (0, 1/8]."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    xs = [F(int(rng.integers(1, 4)), int(rng.integers(12, 20))) for _ in range(n)]
    rates = [F(int(rng.integers(1, 3)), int(rng.integers(3, 9))) for _ in range(5)]
    alpha = None
    beta = None
    if canonical:
        anums = [int(rng.integers(1, 3)) for _ in range(40)]
        adens = [int(rng.integers(5, 12)) for _ in range(40)]
        alpha = lambda k: F(anums[k % 40], adens[k % 40]) if k >= 1 else F(0)
        bnums = [int(rng.integers(1, 3)) for _ in range(40)]
        bdens = [int(rng.integers(6, 14)) for _ in range(40)]
        beta = lambda k: F(bnums[k % 40], bdens[k % 40]) if k >= 1 else F(0)
    return ParamBinding(xs, rates, alpha, beta)


@pytest.fixture
def binding1():
    return make_binding(1, seed=11)


@pytest.fixture
def binding2():
    return make_binding(2, seed=22)


# The unrefined duals' letters: every row of g reads beta_1, and every
# column of j reads alpha_1, valued beta_1 so that omega maps g to j
UNREFINED_G = tableaux.Letters(X, None, lambda j: B(1), LaurentPoly.const(1), LaurentPoly.zero())
UNREFINED_J = tableaux.Letters(X, lambda k: B(1), None, LaurentPoly.const(1), LaurentPoly.zero())


@cache
def symbolic_letters(alpha=True, beta=True, convention=IndexConvention.ALPHA_BY_COLUMN,
                     shift=0):
    """The letters themselves, x_{i + shift} for x_i, with alpha and beta
    only where asked, over polynomial one and zero.  One valuation per
    argument tuple, tableaux.SYMBOLIC and SET_VALUED where they match, so
    tests share its sums as they share those module-level ones."""
    if (beta, convention, shift) == (True, IndexConvention.ALPHA_BY_COLUMN, 0):
        return tableaux.SYMBOLIC if alpha else tableaux.SET_VALUED
    x = X if shift == 0 else lambda i: X(i + shift)
    return tableaux.Letters(x, A if alpha else None, B if beta else None,
                            LaurentPoly.const(1), LaurentPoly.zero(), convention)
