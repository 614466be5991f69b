"""Recursive constructions and their supporting feasibility checks.

The open-loop inputs p_s = W_s^-1 q_s of the binary families come from
the channels' block recursion on vectors with coefficients
P_s^-1 diag T_s, where T is the output chain and P_s the channel from
state s.  The symmetric-Markov output pmf q_s, the recursion with
coefficients diag T_s, is built in place with the same products.
Nonnegativity of the inputs is certified by locating a
multiplier beta inside a set of closed intervals, and the inequalities
backing those intervals are swept numerically on parameter grids.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channels import COLUMN_BLOCK, PostAB, PostAlpha, _check_entries, _check_start
from .channels import _inverse_class_matrices, _vector_level_row, _vector_levels
from .closed_form import _alpha_powers, closed_form_solution
from .probability import SequencePmf, StepPolicy, _freeze, binary_entropy

# How far below zero a margin of induction_step_check or inequality_sweep may fall.
CHECK_SLACK = 1e-12


def _output_chain(delta):
    """Symmetric binary output chain T[y, s] = p(y | s); column s is T_s."""
    return np.array([[1.0 - delta, delta], [delta, 1.0 - delta]])


def output_markov_pmf(delta, n, s0) -> SequencePmf:
    """Pmf of n steps of the symmetric binary Markov chain started at s0.

    Built in place in one 2^n row: from s0 = 0, level l is (1 - delta)
    times level l - 1 followed by delta times level l - 1 reversed, the
    row from state 1 at level l - 1, as flipping every symbol reverses
    the index.  These are the products of the vector recursion with
    coefficients diag T_s, so the bits are the same.  From s0 = 1 the
    row is the s0 = 0 row reversed, built from the back.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if s0 not in (0, 1):
        raise ValueError("s0 must be 0 or 1")
    _check_entries("vector", 2**n)
    row = np.empty(2**n)
    grown = row if s0 == 0 else row[::-1]
    grown[0] = 1.0
    for h in (2**l for l in range(n)):
        np.multiply(grown[h - 1 :: -1], delta, out=grown[h : 2 * h])
        grown[:h] *= 1.0 - delta
    return SequencePmf(2, n, _freeze(row))


def _input_coeffs(spec):
    """Coefficients P_s^-1 diag T_s of the open-loop input recursion of a binary family."""
    chain = _output_chain(closed_form_solution(spec, markov=True).output_markov_transition)
    inverses = _inverse_class_matrices(spec)
    return np.array([inverses[s] * chain[:, s] for s in (0, 1)])


def _input_levels(spec, n):
    """Both open-loop input chains p_0, p_1 of a binary family, level by level.

    Each level is a (2, 2^l) array with row s the input from state s.
    """
    return _vector_levels(_input_coeffs(spec), n)


def _open_loop_input(spec, n, s0) -> SequencePmf:
    """Open-loop input of a binary family whose output is the feedback-optimal chain."""
    _check_start(spec, n, s0)
    return SequencePmf(2, n, _vector_level_row(_input_coeffs(spec), n, s0))


def recursive_input_alpha(alpha, n, s0) -> SequencePmf:
    """Open-loop input whose output matches the feedback-optimal chain."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return _open_loop_input(PostAlpha(alpha), n, s0)


def recursive_input_ab(a, b, n, s0) -> SequencePmf:
    """Open-loop input for the (a, b) family; requires a + b > 1."""
    return _open_loop_input(PostAB(a, b), n, s0)


def _quad_roots(lead, mid, const):
    """Roots of lead*t^2 - mid*t + const = 0 (mid > 0), cancellation-free.

    Returns (smaller, larger); with lead = 0 the larger root is +inf.
    """
    disc = mid * mid - 4.0 * lead * const
    if disc < 0:
        raise ValueError("negative discriminant")
    s = mid + math.sqrt(disc)
    small = 2.0 * const / s
    with np.errstate(divide="ignore"):
        large = math.inf if lead == 0.0 else s / (2.0 * lead)
    return small, large


def _intersect(*intervals):
    lo, hi = 0.0, math.inf
    for iv in intervals:
        if iv is None:
            return None
        lo, hi = max(lo, iv[0]), min(hi, iv[1])
    return (lo, hi) if lo <= hi else None


def _interval(lo, hi):
    return (lo, hi) if lo <= hi else None


@dataclass(frozen=True)
class IntervalSet:
    """The seven beta-feasibility intervals and a point in their required overlap."""

    l0: Optional[tuple]
    l1: Optional[tuple]
    l2: Optional[tuple]
    l3: Optional[tuple]
    l4: Optional[tuple]
    l5: Optional[tuple]
    l6: Optional[tuple]
    nonempty_witness: Optional[float]


def beta_interval_alpha(alpha):
    """Closed multiplier interval certifying nonnegativity for the Z/S family."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    paa, pa1 = _alpha_powers(alpha)
    disc = 1.0 - 4.0 * paa * pa1
    if disc < 0:
        raise ValueError("negative discriminant")
    s = 1.0 + math.sqrt(disc)
    return s / (2.0 * paa), s / (2.0 * pa1)


def beta_intervals_ab(a, b) -> IntervalSet:
    """All seven intervals for the (a, b) family, plus a witness multiplier.

    The witness is searched in the overlap the constructive argument
    needs: l1 with l5 when a*(1-a) <= b*(1-b), else l2 with l6, both
    intersected with l0.
    """
    if a + b - 1.0 < -1e-9:
        a, b = 1.0 - a, 1.0 - b
    if a + b - 1.0 <= 1e-9:
        raise ValueError("requires a + b != 1")
    abar, bbar = 1.0 - a, 1.0 - b
    gamma = 2.0 ** ((binary_entropy(b) - binary_entropy(a)) / (a + b - 1.0))

    r1m, r1p = _quad_roots(bbar, gamma * (abar + b), a)
    r2m, r2p = _quad_roots(b * gamma, a + bbar, abar * gamma)
    r4m, r4p = _quad_roots(a, gamma * (abar + b), bbar)
    r6m, r6p = _quad_roots(abar * gamma, a + bbar, b * gamma)
    with np.errstate(divide="ignore"):
        ratio12 = math.inf if bbar == 0.0 else abar * gamma / bbar
        ratio56 = b * gamma / a
        cap0 = min(
            math.inf if abar == 0.0 else a / (abar * gamma),
            math.inf if bbar == 0.0 else b * gamma / bbar,
        )

    l0 = _interval(1.0, cap0)
    l1 = _interval(max(ratio12, r1m), r1p)
    l2 = _interval(r2p, ratio12)
    l3 = _interval(0.0, min(ratio12, r2m))
    l4 = _interval(0.0, min(ratio56, r4m))
    l5 = _interval(r4p, ratio56)
    l6 = _interval(max(ratio56, r6m), r6p)

    if a * abar <= b * bbar:
        target = _intersect(l1, l5, l0)
    else:
        target = _intersect(l2, l6, l0)
    if target is None:
        # fall back to the full union-intersection condition
        for left in (l1, l2, l3):
            for right in (l4, l5, l6):
                target = _intersect(left, right, l0)
                if target is not None:
                    break
            if target is not None:
                break
    witness = None
    if target is not None:
        lo, hi = target
        witness = lo if math.isinf(hi) else 0.5 * (lo + hi)
    return IntervalSet(l0, l1, l2, l3, l4, l5, l6, witness)


def induction_step_check(spec, beta, n) -> bool:
    """Entrywise beta-domination between the two input chains up to level n.

    Each level l is checked from level l - 1, COLUMN_BLOCK columns at a
    time: rows i and 2 + i of stacked @ level[:, block], i in {0, 1},
    are segment i of p_0 and of p_1 at level l, the products
    _vector_levels forms.  Both checks, beta p1 - p0 and beta p0 - p1,
    are written in turn into one buffer, block by block, so level n is
    never held whole.
    """
    _check_entries("vector", 2**n)
    if n < 1:
        return True
    stacked = _input_coeffs(spec).reshape(4, 2)
    margin = np.empty((2, min(2 ** (n - 1), COLUMN_BLOCK)))
    for level in itertools.chain([np.ones((2, 1))], _input_levels(spec, n - 1)):
        for start in range(0, level.shape[1], COLUMN_BLOCK):
            block = stacked @ level[:, start : start + COLUMN_BLOCK]
            out = margin[:, : block.shape[1]]
            for this, other in ((block[:2], block[2:]), (block[2:], block[:2])):
                np.multiply(beta, other, out=out)
                if np.subtract(out, this, out=out).min() < -CHECK_SLACK:
                    return False
    return True


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    hypothesis: str
    worst_margin: float
    passed: bool


@dataclass
class InequalityReport:
    grid_size: int
    slack: float
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def _entropy_bits(p):
    """Binary entropy of each entry of p in (0, 1), in bits."""
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


def inequality_sweep(grid_size=200) -> InequalityReport:
    """Evaluate every supporting inequality on open parameter grids.

    One-parameter inequalities are swept over alpha in (0, 1); the
    two-parameter ones over (a, b) with a + b > 1, restricted further to
    each inequality's stated hypothesis.
    """
    if grid_size < 10:
        raise ValueError("grid_size must be at least 10")
    _check_entries("inequality grid", grid_size**2)
    report = InequalityReport(grid_size, CHECK_SLACK)

    alphas = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    paa = np.exp(alphas * np.log(alphas) / (1.0 - alphas))
    pa1 = np.exp(np.log(alphas) / (1.0 - alphas))
    quad = 4.0 * paa * pa1  # alpha**((alpha+1)/(1-alpha)) times 4

    def add(name, hypothesis, margins):
        worst = float(np.min(margins)) if np.size(margins) else math.inf
        report.checks.append(InequalityCheck(name, hypothesis, worst, worst >= -CHECK_SLACK))

    add("alpha_pow_inv_abar_le_1", "alpha in (0,1)", 1.0 - pa1)
    add("four_alpha_pow_le_1", "alpha in (0,1)", 1.0 - quad)
    add(
        "beta_lower_root_ge_1",
        "alpha in (0,1)",
        (1.0 + np.sqrt(np.maximum(1.0 - quad, 0.0))) / (2.0 * paa) - 1.0,
    )

    # the (a, b) grid points with a + b > 1 in row-major order, without a
    # meshgrid; each margin is reduced before the next is formed, and the
    # complements 1 - a and 1 - b are formed where used, so only a, b and
    # gamma stay alive across checks
    axis = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    rows, cols = np.nonzero(axis[:, None] + axis - 1.0 > 1e-9)
    a, b = axis[rows], axis[cols]
    del rows, cols
    gamma = 2.0 ** ((_entropy_bits(b) - _entropy_bits(a)) / (a + b - 1.0))
    balanced = a * (1.0 - a) <= b * (1.0 - b)

    disc1 = gamma**2 * ((1.0 - a) + b) ** 2 - 4.0 * a * (1.0 - b)
    add("gamma_sq_discriminant", "a+b>1", disc1)
    add("gamma_sq_discriminant_swapped", "a+b>1", (a + (1.0 - b)) ** 2 - 4.0 * (1.0 - a) * b * gamma**2)
    add("a_ge_b", "a+b>1, a*abar<=b*bbar", (a - b)[balanced])
    # the root overwrites disc1, which is not read again
    root = np.sqrt(np.maximum(disc1, 0.0, out=disc1), out=disc1)
    add(
        "lower_root_le_two_bbar",
        "a+b>1, a*abar<=b*bbar",
        (2.0 * (1.0 - b) - (gamma * ((1.0 - a) + b) - root))[balanced],
    )
    del disc1, root
    add("b_gamma_over_a_ge_1", "a+b>1, a*abar<=b*bbar", (b * gamma / a - 1.0)[balanced])
    add("gamma_sq_le_a_sq_over_b_abar", "a+b>1", a**2 / (b * (1.0 - a)) - gamma**2)
    add(
        "gamma_abar_plus_b_ge_two_bbar",
        "a+b>1, a*abar<=b*bbar",
        (gamma * ((1.0 - a) + b) / (2.0 * (1.0 - b)) - 1.0)[balanced],
    )
    add("gamma_ge_bbar_over_b", "a+b>1", gamma - (1.0 - b) / b)
    add("gamma_le_a_over_abar", "a+b>1", a / (1.0 - a) - gamma)
    return report


def _output_state_policy(laws, s0) -> StepPolicy:
    """StepPolicy whose step i draws x_i from laws[i-1][y_(i-1)], with y_0 = s0.

    Each law has shape (states, inputs).  No step depends on the past
    inputs, so each has first axis 1: step i holds the law of the last
    symbol of every y^(i-1), k^(i-1) x |X| entries.
    """
    k, x = laws[0].shape
    steps = [law[np.arange(k**i) % k][None] for i, law in enumerate(laws[1:], start=1)]
    return StepPolicy(x, k, len(laws), 1, (laws[0][s0][None, None], *steps))
