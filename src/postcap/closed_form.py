"""Analytic capacity formulas for the channel families.

The binary families admit exact capacities, capacity-achieving pmfs and
the transition probability of the symmetric Markov chain induced at the
output.  The m-ary family's feedback capacity comes from a two-parameter
stationary policy whose value we maximize on a grid with local
refinement.  closed_form_solution looks up the solution of a channel
spec, so callers need not branch on its family.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import MaryPost, PostAB, PostAlpha, SingularChannelError, _check_entries
from .probability import _freeze, binary_entropy

DEGENERATE_EPS = 1e-9
MARY_COARSE_POINTS = 201  # per axis of mary_feedback_capacity's first grid
MARY_REFINE_TOL = 1e-8  # cell width at which its refinement stops


def _alpha_powers(alpha):
    """(alpha**(alpha/(1-alpha)), alpha**(1/(1-alpha))) with endpoint limits."""
    if alpha <= 0.0:
        return 1.0, 0.0
    if alpha >= 1.0:
        e = math.exp(-1.0)
        return e, e
    log_a = math.log(alpha)
    return math.exp(alpha * log_a / (1.0 - alpha)), math.exp(log_a / (1.0 - alpha))


@dataclass(frozen=True)
class PostAlphaSolution:
    alpha: float
    c: float
    capacity_bits: float
    input_pmf: tuple
    output_markov_transition: float


@dataclass(frozen=True)
class PostABSolution:
    a: float
    b: float
    capacity_bits: float
    gamma: float
    input_pmf: tuple
    output_pmf: tuple
    relabeled: bool
    degenerate: bool = False

    @property
    def output_markov_transition(self):
        return self.output_pmf[1]


@dataclass(frozen=True)
class MaryFeedbackSolution:
    m: int
    gamma_star: float
    delta_star: float
    capacity_bits: float
    stationary_pi: np.ndarray


def post_alpha_capacity(alpha) -> PostAlphaSolution:
    """Capacity of the two-state Z/S channel; also the plain Z-channel value."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    paa, pa1 = _alpha_powers(alpha)
    c = 1.0 / (1.0 + (1.0 - alpha) * paa)
    return PostAlphaSolution(
        alpha=alpha,
        c=c,
        capacity_bits=-math.log2(c) + 0.0,  # avoid -0.0 at alpha = 1
        input_pmf=(c * (1.0 - pa1), c * paa),
        output_markov_transition=c * (1.0 - alpha) * paa,
    )


def binary_dmc_capacity(a, b) -> PostABSolution:
    """Capacity of the binary DMC with parameter pair (a, b).

    Pairs with a + b < 1 are relabeled to (1-a, 1-b) first; pairs on the
    line a + b = 1 have zero capacity and are flagged degenerate.
    """
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError("a and b must lie in [0, 1]")
    relabeled = False
    if a + b - 1.0 < -DEGENERATE_EPS:
        a, b = 1.0 - a, 1.0 - b
        relabeled = True
    s = a + b - 1.0
    if abs(s) <= DEGENERATE_EPS:
        return PostABSolution(
            a=a,
            b=b,
            capacity_bits=0.0,
            gamma=math.nan,
            input_pmf=(0.5, 0.5),
            output_pmf=(0.5, 0.5),
            relabeled=relabeled,
            degenerate=True,
        )
    ha, hb = binary_entropy(a), binary_entropy(b)
    capacity = math.log2(
        2.0 ** (((1.0 - a) * hb - b * ha) / s) + 2.0 ** (((1.0 - b) * ha - a * hb) / s)
    )
    gamma = 2.0 ** ((hb - ha) / s)
    eb = 2.0 ** (hb / s)
    ea = 2.0 ** (ha / s)
    c0 = 1.0 / (s * (eb + ea))
    input_pmf = (
        c0 * (b * eb - (1.0 - b) * ea),
        c0 * (a * ea - (1.0 - a) * eb),
    )
    output_pmf = (gamma / (1.0 + gamma), 1.0 / (1.0 + gamma))
    return PostABSolution(
        a=a,
        b=b,
        capacity_bits=capacity,
        gamma=gamma,
        input_pmf=input_pmf,
        output_pmf=output_pmf,
        relabeled=relabeled,
    )


def _h2(p):
    """Vectorized binary entropy in bits with the 0 log 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    a, b = np.where(p > 0, p, 1.0), np.where(p < 1, 1.0 - p, 1.0)  # 1 log 1 = 0 for 0 log 0
    return (0.0 - a * np.log2(a)) - b * np.log2(b)


def _mary_rate_terms(gamma, delta):
    """The terms of the m-ary rate that do not depend on m.

    Returns (scale, offset) with rate = scale * lead(m, gamma) + offset:
    scale = 2 delta / (2 delta + 1 + gamma) and offset = (1 + gamma) /
    (2 delta + 1 + gamma) * h(delta).
    """
    gamma = np.asarray(gamma, dtype=float)
    delta = np.asarray(delta, dtype=float)
    denom = np.asarray(2.0 * delta + 1.0 + gamma)  # an array, so its buffer can be reused
    scale = 2.0 * delta / denom
    offset = np.divide(1.0 + gamma, denom, out=denom)
    offset *= _h2(delta)
    return scale, offset


def _mary_rate(m, gamma, scale, offset):
    """scale * lead(m, gamma) + offset, the rate from its m-independent terms."""
    gamma = np.asarray(gamma, dtype=float)
    lead = 0.5 * (1.0 - gamma) * math.log2(m) + _h2(0.5 * (1.0 + gamma)) - (1.0 - gamma)
    rate = scale * lead
    rate += offset
    return rate


def mary_rate_objective(m, gamma, delta):
    """Per-use rate of the two-parameter stationary policy, in bits.

    gamma is the stay-at-state-m input weight used below state m, delta
    the reset weight used at state m; both broadcast as arrays.  Each entropy
    term depends on one of them, so on a column of gammas and a row of deltas
    it is computed once per axis value.
    """
    return _mary_rate(m, gamma, *_mary_rate_terms(gamma, delta))


@functools.cache
def _mary_coarse_terms():
    """Axis of the coarse grid and its (scale, offset), shared by every m; built on first use."""
    axis = np.linspace(0.0, 1.0, MARY_COARSE_POINTS)
    return (_freeze(axis), *map(_freeze, _mary_rate_terms(axis[:, None], axis)))


def mary_state_policy(m, gamma, delta):
    """Rows: state; columns: input distribution of the stationary policy."""
    pol = np.zeros((m + 1, m + 1))
    pol[:m, :m] = (1.0 - gamma) / m
    pol[:m, m] = gamma
    pol[m, :m] = (1.0 - delta) / m
    pol[m, m] = delta
    return pol


def mary_output_chain(m, gamma, delta):
    """Column-stochastic transition matrix of the induced output chain."""
    mats = MaryPost(m).class_matrices
    pol = mary_state_policy(m, gamma, delta)
    # the m states below m share one matrix and one policy row
    return np.column_stack([mats[0] @ pol[0]] * m + [mats[m] @ pol[m]])


def mary_stationary_distribution(m, gamma, delta):
    """Stationary law of the induced output chain (gamma < 1, delta > 0)."""
    if not (0.0 <= gamma < 1.0 and 0.0 < delta <= 1.0):
        raise ValueError("requires gamma in [0, 1) and delta in (0, 1]")
    _check_entries("stationary law", m + 1)
    coeff = delta * (1.0 - gamma) / (m * (2.0 * delta + 1.0 + gamma))
    pi = np.empty(m + 1)
    pi[0] = coeff * ((m - 1) * gamma + m + 1) / (1.0 - gamma)
    pi[1:m] = coeff
    pi[m] = coeff * (1.0 + gamma) * m / (delta * (1.0 - gamma))
    return pi


def mary_feedback_capacity(m) -> MaryFeedbackSolution:
    """Maximize the stationary-policy rate over (gamma, delta) in [0,1]^2.

    Coarse grid, then local refinement down to MARY_REFINE_TOL in each
    coordinate; each grid is evaluated on its axes, gammas as a column.
    The coarse grid's m-independent terms are computed once per process.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    gs, scale, offset = _mary_coarse_terms()
    ds = gs
    rates = _mary_rate(m, gs[:, None], scale, offset)
    width = gs[1] - gs[0]
    while True:
        i, j = divmod(int(np.argmax(rates)), ds.size)
        g, d = float(gs[i]), float(ds[j])
        if width <= MARY_REFINE_TOL:
            break
        width /= 8.0
        gs = np.clip(np.linspace(g - 8 * width, g + 8 * width, 33), 0.0, 1.0)
        ds = np.clip(np.linspace(d - 8 * width, d + 8 * width, 33), 0.0, 1.0)
        rates = mary_rate_objective(m, gs[:, None], ds)
    return MaryFeedbackSolution(
        m=m,
        gamma_star=g,
        delta_star=d,
        capacity_bits=float(mary_rate_objective(m, g, d)),
        stationary_pi=mary_stationary_distribution(m, g, d),
    )


def mary_scheme_rate(m) -> float:
    """Rate of the simple error-free relaying scheme: log2(m) / 3."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return math.log2(m) / 3.0


def iid_state_example():
    """(non-feedback, feedback) capacities of the i.i.d.-state Z/S channel."""
    no_feedback = binary_entropy(0.25) - 0.5
    feedback = binary_entropy(0.2) - 0.4
    return no_feedback, feedback


def closed_form_solution(spec, markov=False):
    """The closed-form solution of a named family, looked up by its spec.

    PostAlpha and PostAB give capacity_bits, input_pmf and the output
    chain's transition probability output_markov_transition; MaryPost
    gives capacity_bits of its feedback capacity.  With markov=True the
    feedback-optimal output law must be the symmetric binary Markov
    chain, which rules out MaryPost and PostAB with a + b <= 1.
    """
    if isinstance(spec, PostAlpha):
        return post_alpha_capacity(spec.alpha)
    if isinstance(spec, PostAB):
        sol = binary_dmc_capacity(spec.a, spec.b)
        if markov and (sol.degenerate or sol.relabeled):
            raise SingularChannelError("requires a + b > 1")
        return sol
    if isinstance(spec, MaryPost) and not markov:
        return mary_feedback_capacity(spec.m)
    raise TypeError(f"no closed form{' with a Markov output law' if markov else ''} for {spec!r}")
