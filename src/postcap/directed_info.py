"""Directed information between input kernels and channel kernels.

All quantities are returned in bits.  directed_information sums the
nonzero terms of the dense joint (0 log 0 = 0) with numpy's pairwise
summation, measured within a few ulp of math.fsum on solved kernels up
to n = 8.  mutual_information_given_state builds no joint: it runs the
matrix-free channel passes of the open-loop solver.  concavity_probe
compares the value at a mixture of two input kernels with the mixed
values.
"""

import numpy as np

from .channels import _channel_steps, _divergences, input_alphabet
from .probability import LN2, CausalKernel, SequencePmf, _joint


def directed_information(input_kernel: CausalKernel, channel: CausalKernel) -> float:
    """I(X^n -> Y^n) in bits for a feedback input law and a channel."""
    joint = _joint(input_kernel, channel)
    chan = channel.values
    py = np.broadcast_to(joint.sum(axis=1)[:, None], joint.shape)
    mask = joint > 0
    with np.errstate(divide="ignore"):
        terms = joint[mask] * (np.log2(chan[mask]) - np.log2(py[mask]))
    value = float(terms.sum())
    return 0.0 if -1e-12 < value < 0.0 else value


def mutual_information_given_state(spec, n, s0, input_pmf: SequencePmf) -> float:
    """I(X^n; Y^n | s0) for an input that ignores the feedback, in bits.

    The value p . D / ln 2 of the open-loop solver, with D(x^n) the
    divergence of W(. | x^n) from q = W p, computed one channel position
    at a time by the matrix-free passes; neither the sequence kernel nor
    the joint is built.  The size check is the passes': ValueError above
    DENSE_ENTRY_CAP entries in any pass array, so binary channels go up
    to n = 20.
    """
    if input_pmf.n != n or input_pmf.alphabet_size != input_alphabet(spec):
        raise ValueError("input pmf does not match the channel")
    steps, ent = _channel_steps(spec, n, s0)
    p = input_pmf.values
    value = float(p @ _divergences(steps, ent, s0, n, p)) / LN2
    return 0.0 if -1e-12 < value < 0.0 else value


def concavity_probe(channel: CausalKernel, p1: CausalKernel, p2: CausalKernel, theta: float):
    """Value at the mixture versus the mixed values, for concavity checks.

    Returns (lhs, rhs) with lhs the directed information of the
    theta-mixture of the two input kernels; concavity means lhs >= rhs.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if p1.values.shape != p2.values.shape:
        raise ValueError("input kernels must share one shape")
    mix = CausalKernel(
        p1.out_alphabet,
        p1.in_alphabet,
        p1.n,
        1,
        theta * p1.values + (1.0 - theta) * p2.values,
    )
    lhs = directed_information(mix, channel)
    rhs = theta * directed_information(p1, channel) + (1.0 - theta) * directed_information(
        p2, channel
    )
    return lhs, rhs
