"""Analytic capacity formulas for the channel families.

The binary families admit exact capacities, capacity-achieving pmfs and
the transition probability of the symmetric Markov chain induced at the
output.  The m-ary family's feedback capacity solves the average-reward
Bellman equation on its two state classes: one quadratic or one cubic
root.  closed_form_solution looks up the solution of a channel spec, so
callers need not branch on its family.
"""

import math
from typing import NamedTuple

import numpy as np

from .channels import MaryPost, PostAB, PostAlpha, SingularChannelError, _check_entries
from .probability import binary_entropy

DEGENERATE_EPS = 1e-9


def _alpha_powers(alpha):
    """(alpha**(alpha/(1-alpha)), alpha**(1/(1-alpha))) with endpoint limits."""
    if alpha <= 0.0:
        return 1.0, 0.0
    if alpha >= 1.0:
        e = math.exp(-1.0)
        return e, e
    log_a = math.log(alpha)
    return math.exp(alpha * log_a / (1.0 - alpha)), math.exp(log_a / (1.0 - alpha))


# The solutions are tuples: building one costs a third of a frozen
# dataclass's, and sweep ab builds one per grid point.
class PostAlphaSolution(NamedTuple):
    alpha: float
    c: float
    capacity_bits: float
    input_pmf: tuple
    output_markov_transition: float


class PostABSolution(NamedTuple):
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


class MaryFeedbackSolution(NamedTuple):
    m: int
    gamma_star: float
    delta_star: float
    capacity_bits: float
    stationary_pi: np.ndarray


def post_alpha_capacity(alpha) -> PostAlphaSolution:
    """Capacity of the two-state Z/S channel; also the plain Z-channel value."""
    alpha = float(alpha)  # a numpy scalar gives the same bits, faster
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
    a, b = float(a), float(b)  # numpy scalars (grid points) give the same bits, faster
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError("a and b must lie in [0, 1]")
    relabeled = False
    if a + b - 1.0 < -DEGENERATE_EPS:
        a, b = 1.0 - a, 1.0 - b
        relabeled = True
    s = a + b - 1.0
    if abs(s) <= DEGENERATE_EPS:
        return PostABSolution(a, b, 0.0, math.nan, (0.5, 0.5), (0.5, 0.5), relabeled, True)
    # binary_entropy's arithmetic, inline: a and b already lie in [0, 1]
    ha = 0.0 if a == 0.0 or a == 1.0 else -(a * math.log2(a) + (1.0 - a) * math.log2(1.0 - a))
    hb = 0.0 if b == 0.0 or b == 1.0 else -(b * math.log2(b) + (1.0 - b) * math.log2(1.0 - b))
    capacity = math.log2(
        2.0 ** (((1.0 - a) * hb - b * ha) / s) + 2.0 ** (((1.0 - b) * ha - a * hb) / s)
    )
    gamma = 2.0 ** ((hb - ha) / s)
    # eb and ea are 2^(hb/s) and 2^(ha/s) over their larger one, which
    # c0 cancels: near a + b = 1 the unscaled powers overflow
    top = max(ha, hb)
    eb = 2.0 ** ((hb - top) / s)
    ea = 2.0 ** ((ha - top) / s)
    c0 = 1.0 / (s * (eb + ea))
    input_pmf = (
        c0 * (b * eb - (1.0 - b) * ea),
        c0 * (a * ea - (1.0 - a) * eb),
    )
    output_pmf = (gamma / (1.0 + gamma), 1.0 / (1.0 + gamma))
    return PostABSolution(a, b, capacity, gamma, input_pmf, output_pmf, relabeled)


def _mary_lead(m, g):
    """lead(g) = (1 - g) log2(m) / 2 + h((1 + g) / 2) - (1 - g), bits."""
    return 0.5 * (1.0 - g) * math.log2(m) + binary_entropy(0.5 * (1.0 + g)) - (1.0 - g)


def _mary_rate(m, g, d):
    """Per-use rate N / D of the two-parameter stationary policy, in bits.

    g is the stay-at-state-m input weight below state m, d the reset weight
    at state m: N = 2 d lead(g) + (1 + g) h(d) and D = 2 d + 1 + g.
    """
    return (2.0 * d * _mary_lead(m, g) + (1.0 + g) * binary_entropy(d)) / (2.0 * d + 1.0 + g)


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
    """C_fb of MaryPost(m), from the average-reward Bellman equation.

    lambda + h(s) = max_p [I(p; W_s) + sum_y (W_s p)(y) h(y)] (Chen &
    Berger, IEEE T-IT 51(3), 2005); a bounded solution h proves lambda =
    C_fb from every start state (Puterman, Markov Decision Processes,
    8.4).  h is constant below m, where the inputs below m are
    exchangeable; let u = 2^(h(m) - h(0)).  State m picks delta = p(m):
    lambda = log2(1 + 1/u) at delta = 1/(1 + u).  Below m, lambda is the
    maximum of the concave lead(gamma) + (1 + gamma) log2(u) / 2, at gamma
    = max(0, (4u - m) / (4u + m)).  For m <= 4, lambda = log2(u + m/4)
    with u the positive root of u^2 + (m/4 - 1) u - 1.  For m >= 4 gamma
    = 0, lambda = log2(m u) / 2 and t = sqrt(u) is the one positive root
    of sqrt(m) t^3 - t^2 - 1 (Cardano).  Both give u = 1 at m = 4.  The
    sign of 4u - m is the face's KKT condition, and gamma is computed from
    it, so no separate check is needed.  capacity_bits is the rate of the
    stationary policy (gamma, delta), which attains lambda.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if m <= 4:
        b = 0.25 * m - 1.0
        u = 2.0 / (b + math.sqrt(b * b + 4.0))
    else:
        # t^3 - a t^2 - a with a = 1/sqrt(m); t = s + a/3 gives s^3 + p s + q,
        # with p = -a^2/3 < 0, and s = w - p / (3w) adds two positive terms
        a = 1.0 / math.sqrt(m)
        w = (a**3 / 27.0 + 0.5 * a + math.sqrt(a**4 / 27.0 + 0.25 * a * a)) ** (1.0 / 3.0)
        u = (a / 3.0 + w + a * a / (9.0 * w)) ** 2
    g = max(0.0, (4.0 * u - m) / (4.0 * u + m))
    d = 1.0 / (1.0 + u)
    return MaryFeedbackSolution(m, g, d, _mary_rate(m, g, d), mary_stationary_distribution(m, g, d))


def mary_horizon_values(m, n):
    """Exact n-use feedback values of MaryPost(m) in bits: (from a state below m, from state m).

    n steps of the Bellman operator of mary_feedback_capacity from V = 0,
    each at its maximizers.  With d = V(m) - V(0) and u = 2^d, state m
    takes delta = 1/(1 + u) and gains h(delta) + (1 - delta) d over V(0);
    a state below m takes gamma = max(0, (4u - m) / (4u + m)) and gains
    lead(gamma) + (1 + gamma) d / 2.  The steps run on V(0) and d, O(n)
    scalar operations, since 2^V overflows at m = 16, n = 1000.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if n < 0:
        raise ValueError("n must be non-negative")
    base, d = 0.0, 0.0
    for _ in range(n):
        u = 2.0**d
        g = max(0.0, (4.0 * u - m) / (4.0 * u + m))
        delta = 1.0 / (1.0 + u)
        below = _mary_lead(m, g) + 0.5 * (1.0 + g) * d
        base, d = base + below, binary_entropy(delta) + (1.0 - delta) * d - below
    return base, base + d


def mary_scheme_rate(m) -> float:
    """Rate of the simple error-free relaying scheme: log2(m) / 3."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return math.log2(m) / 3.0


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
