"""Dense reference constructions and worked examples that only the tests use.

Each builds or checks a sequence-level object directly, so the tests can
hold the package's faster paths to them: lifting a plain input pmf to a
causal kernel, the constraints of a valid causal kernel and the
per-step conditionals it factors into, the output law induced through
the dense channel, the per-step decomposition of directed information,
the step arrays of an output-state policy, and the closed-form feedback
policy of a binary family as a causal kernel.  iid_state_example holds
the capacities of the paper's i.i.d.-state example, and
binary_dmc_capacity_reference the binary DMC's closed form as written
with binary_entropy calls and keyword fields.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from postcap.channels import _check_causal_kernel, build_sequence_kernel
from postcap.closed_form import DEGENERATE_EPS, PostABSolution, closed_form_solution
from postcap.construction import _output_state_policy
from postcap.probability import CausalKernel, SequencePmf, StepPolicy, _joint, binary_entropy, compose_causal

# Allowed violation of the causal-kernel constraints in validate_causal.
KERNEL_TOL = 1e-9

# Conditionals on prefixes whose partial sum falls below this are taken
# uniform (the dead-branch convention of factorize_causal).
DEAD_BRANCH_FLOOR = 1e-12


def open_loop_kernel(pmf: SequencePmf, feedback_alphabet: int) -> CausalKernel:
    """Lift a plain input pmf to a causal kernel that ignores the feedback."""
    cols = feedback_alphabet ** (pmf.n - 1)
    values = np.tile(pmf.values[:, None], (1, cols))
    return CausalKernel(pmf.alphabet_size, feedback_alphabet, pmf.n, 1, values)


@dataclass
class ValidationReport:
    """Outcome of validate_causal: every violated constraint with its size."""

    passed: bool
    max_violation: float
    tol: float
    violations: list = field(default_factory=list)


def _partial_sums(kernel, level):
    """Sum the kernel over tails a_{level+1..n}; shape (A**level, B**(n-d))."""
    a, n = kernel.out_alphabet, kernel.n
    v = kernel.values
    return v.reshape(a**level, a ** (n - level), v.shape[1]).sum(axis=1)


def validate_causal(kernel: CausalKernel, tol=KERNEL_TOL) -> ValidationReport:
    """Check nonnegativity, column normalization and prefix consistency.

    A matrix is a valid causal kernel exactly when its entries are
    nonnegative, every column sums to 1, and for every prefix level i the
    partial sums over the tail a_{i+1..n} agree across all conditioning
    contexts that share the first i-d symbols.
    """
    a, b, n, d = kernel.out_alphabet, kernel.in_alphabet, kernel.n, kernel.delay
    v = kernel.values
    violations = []
    worst = 0.0

    neg = max(0.0, float(-v.min())) if v.size else 0.0
    worst = max(worst, neg)
    if neg > tol:
        violations.append(("negativity", neg))

    col_err = np.abs(v.sum(axis=0) - 1.0)
    worst = max(worst, float(col_err.max()))
    for j in np.flatnonzero(col_err > tol):
        violations.append((f"normalization b-context {j}", float(col_err[j])))

    # prefix consistency: partial sums at level i may depend on the first
    # i-d conditioning symbols only
    for i in range(1, n):
        s = _partial_sums(kernel, i)
        j = max(i - d, 0)
        group = b ** (n - d - j)
        if group == 1:
            continue
        grouped = s.reshape(a**i, b**j, group)
        diff = np.abs(grouped - grouped[:, :, :1])
        worst = max(worst, float(diff.max()))
        for r, g, c in zip(*np.nonzero(diff > tol)):
            violations.append(
                (
                    f"prefix consistency level {i} a-prefix {r} b-context {g * group + c}",
                    float(diff[r, g, c]),
                )
            )

    return ValidationReport(worst <= tol, worst, tol, violations)


def factorize_causal(kernel: CausalKernel, tol=KERNEL_TOL) -> StepPolicy:
    """Recover per-step conditionals from a valid causal kernel.

    Conditionals on prefixes with vanishing probability are set uniform,
    so the result always composes back to the kernel on live branches.
    """
    report = validate_causal(kernel, tol)
    if not report.passed:
        raise ValueError(f"not a causal kernel (max violation {report.max_violation:.3e})")
    a, b, n, d = kernel.out_alphabet, kernel.in_alphabet, kernel.n, kernel.delay

    # prefix-sum tables, collapsed onto the symbols they may depend on
    tables = [np.ones((1, 1))]
    for i in range(1, n + 1):
        s = _partial_sums(kernel, i)
        j = max(i - d, 0)
        group = b ** (n - d - j)
        tables.append(s.reshape(a**i, b**j, group).mean(axis=2))

    steps = []
    for i in range(1, n + 1):
        j = max(i - d, 0)
        jprev = max(i - 1 - d, 0)
        num = tables[i].reshape(a ** (i - 1), a, b**j)
        den = tables[i - 1]
        if j > jprev:
            den = np.repeat(den, b, axis=1)
        den = den[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(den > DEAD_BRANCH_FLOOR, num / den, 1.0 / a)
        cond = np.clip(cond, 0.0, 1.0)
        steps.append(cond.transpose(0, 2, 1))
    return StepPolicy(a, b, n, d, tuple(steps))


def induced_output_pmf(spec, n, s0, input_kernel: CausalKernel) -> SequencePmf:
    """Output pmf p(y^n) = sum_x p(y^n || x^n, s0) p(x^n || y^{n-1})."""
    channel = build_sequence_kernel(spec, n, s0).kernel
    return SequencePmf(channel.out_alphabet, n, _joint(input_kernel, channel).sum(axis=1))


def directed_information_stepwise(input_kernel: CausalKernel, channel: CausalKernel):
    """Per-step terms I(X^i; Y_i | Y^{i-1}) in bits; they sum to the total.

    Each term is summed with math.fsum, so the decomposition identity
    holds to ~1e-12 even at n = 8.
    """
    joint = _joint(input_kernel, channel)
    x, y, n = input_kernel.out_alphabet, channel.out_alphabet, channel.n
    terms = []
    for i in range(1, n + 1):
        m = joint.reshape(y**i, y ** (n - i), x**i, x ** (n - i)).sum(axis=(1, 3))
        m3 = m.reshape(y ** (i - 1), y, x**i)
        d = m3.sum(axis=1, keepdims=True)  # p(y^{i-1}, x^i)
        p_i = m3.sum(axis=2, keepdims=True)  # p(y^i)
        p_prev = p_i.sum(axis=1, keepdims=True)  # p(y^{i-1})
        mask = m3 > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            logterm = (
                np.log2(m3, where=mask, out=np.zeros_like(m3))
                + np.log2(p_prev, where=p_prev > 0, out=np.zeros_like(p_prev))
                - np.log2(d, where=d > 0, out=np.zeros_like(d))
                - np.log2(p_i, where=p_i > 0, out=np.zeros_like(p_i))
            )
        val = math.fsum((m3 * logterm)[mask])
        terms.append(0.0 if -1e-12 < val < 0.0 else val)
    return np.array(terms)


def output_state_policy(laws, s0) -> StepPolicy:
    """StepPolicy of the feedback policy whose step i draws from laws[i-1][previous output].

    Each law has shape (states, inputs); step 1 is in state s0.
    """
    k, x = laws[0].shape
    steps = [laws[0][s0].reshape(1, 1, x)]
    for i, law in enumerate(laws[1:], start=1):
        last = np.arange(k**i) % k  # least-significant symbol of y^i
        steps.append(np.broadcast_to(law[last], (x**i, k**i, x)).copy())
    return StepPolicy(x, k, len(laws), 1, tuple(steps))


def feedback_policy(spec, n, s0) -> CausalKernel:
    """Capacity-achieving feedback policy, as a causal kernel: one input law per channel state.

    Step 1 uses the initial state; later steps condition on the previous
    output only.  The state-1 law is the state-0 law with the input
    labels swapped.  It composes through the feedback solver's own path
    and gate.
    """
    _check_causal_kernel(spec, n, s0)
    base = closed_form_solution(spec, markov=True).input_pmf
    return compose_causal(_output_state_policy([np.array([base, base[::-1]])] * n, s0))


def iid_state_example():
    """(non-feedback, feedback) capacities of the i.i.d.-state Z/S channel."""
    no_feedback = binary_entropy(0.25) - 0.5
    feedback = binary_entropy(0.2) - 0.4
    return no_feedback, feedback


def binary_dmc_capacity_reference(a, b) -> PostABSolution:
    """closed_form.binary_dmc_capacity, with binary_entropy calls and keyword fields."""
    a, b = float(a), float(b)
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
    top = max(ha, hb)
    eb = 2.0 ** ((hb - top) / s)
    ea = 2.0 ** ((ha - top) / s)
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
