"""Maximization of directed information and its optimality certificates.

Two solvers are provided.  The feedback solver alternates between an
exact posterior update and an exact maximization of the surrogate
objective over the causal-input polyhedron; the latter is a backward
softmax recursion over input/output histories, so every iterate is a
valid causal kernel and the objective never decreases.  The open-loop
solver is the classic alternating maximization over plain input pmfs;
it never builds the channel matrix, but follows the channel one
position at a time for q = W p and for the divergences of W from q.

The feedback solver prepares the channel once per solve: w, the sum of
the channel over the last output, and cl, the sum of chan ln chan over
it.  Each iteration then makes one log pass over the output law,
p(y^n) and S = sum_{y_n} chan ln p(y^n), which serves the objective
(<kin, cl> - sum p ln p), the certificate (gradient t = cl - S - w) and
the softmax step (utility (cl - S)/w + ln kin).

Certificates: a first-order report with one multiplier per output
context.  The inner expressions and the multipliers are computed in
nats; the implied capacity (sum of multipliers plus one) is converted
to bits once at the end.  Each iteration computes only the pass/fail
diagnostics; the full report, with its multiplier map, is built for the
returned kernel alone, by the same certificate path kkt_check runs.
"""

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import (
    _backward_pass,
    _channel_steps,
    _forward_pass,
    build_sequence_kernel,
    initial_states,
    input_alphabet,
    invert_sequence_kernel,
    output_alphabet,
)
from .closed_form import closed_form_solution
from .construction import output_markov_pmf
from .directed_info import directed_information
from .probability import (
    CausalKernel,
    SequencePmf,
    StepPolicy,
    compose_causal,
    index_sequence,
    open_loop_kernel,
    random_policy,
)

LN2 = math.log(2.0)

# Input-kernel entries above this count as supported in the certificate.
SUPPORT_THRESHOLD = 1e-8

# Stand-in for log(0) when forming softmax utilities; large enough to
# zero the branch, small enough to avoid inf - inf.
LOG_ZERO = -1e3


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over axis (all entries when None), shifted by the maximum.

    Rows whose maximum is not finite (all -inf) are not shifted.
    """
    a = np.asarray(a)
    top = a.max(axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - top).sum(axis=axis, keepdims=True)) + top
    return out.squeeze(axis) if axis is not None else float(out.item())


@dataclass
class OptimizerConfig:
    """Iteration budget and tolerances shared by both solvers.

    kkt_tolerance is in nats and bounds both certificate violations (and
    the Gallager residual of the open-loop solver).
    """

    max_iterations: int = 5000
    kkt_tolerance: float = 1e-6
    objective_tolerance: float = 1e-14
    initialization: str = "uniform"
    seed: int = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.kkt_tolerance <= 0 or self.objective_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.initialization not in ("uniform", "random"):
            raise ValueError("initialization must be 'uniform' or 'random'")


@dataclass
class KktReport:
    """First-order optimality certificate for a feedback input kernel.

    beta maps each output context y^{n-1} to the support-weighted mean of
    the inner expression over that context (nats); implied_capacity is
    (sum of the multipliers + 1) converted to bits.

    The stationarity condition is checked on the per-input-sequence sum
    of the inner expression across output contexts: it must equal the
    multiplier total on supported sequences and not exceed it elsewhere.
    (The pointwise per-context form holds only at n = 1; for longer
    horizons the prefix-consistency constraints tie the contexts
    together, and only the across-context sum is pinned down.)
    polyhedron_gap is the exact first-order improvement available over
    the whole causal polyhedron, found by a backward max/sum recursion;
    it vanishes exactly at an optimum.  All three diagnostics are in
    nats and must fall below tol for the certificate to pass.
    """

    beta: dict
    max_violation_support: float
    max_violation_offsupport: float
    polyhedron_gap: float
    implied_capacity: float
    passed: bool
    tol: float
    note: str = ""

    def to_text(self):
        lines = [
            f"passed: {self.passed}",
            f"max_violation_support: {self.max_violation_support:.6e}",
            f"max_violation_offsupport: {self.max_violation_offsupport:.6e}",
            f"polyhedron_gap: {self.polyhedron_gap:.6e}",
            f"implied_capacity_bits: {self.implied_capacity:.9f}",
            f"tol: {self.tol:.3e}",
        ]
        for ctx, val in self.beta.items():
            label = "".join(str(s) for s in ctx) if ctx else "-"
            lines.append(f"beta_{label}: {val:.9f}")
        if self.note:
            lines.append(f"note: {self.note}")
        return "\n".join(lines) + "\n"


@dataclass
class MatchReport:
    """Validity of the open-loop input solved from the target output law."""

    min_entry: float
    total: float
    di_gap: float
    passed: bool
    input_pmf: SequencePmf = field(repr=False, default=None)

    def to_text(self):
        return (
            f"passed: {self.passed}\n"
            f"min_entry: {self.min_entry:.6e}\n"
            f"total: {self.total!r}\n"
            f"di_gap: {self.di_gap:.6e}\n"
        )


def _polyhedron_max(t, x_alph, y_alph, n):
    """max of <t, K> over causal kernels K, by backward max/sum recursion.

    Contexts enter the inner product unweighted, so the recursion
    maximizes over each input symbol and sums over output branches.
    """
    util = t
    for i in range(n, 0, -1):
        best = util.reshape(x_alph ** (i - 1), x_alph, y_alph ** (i - 1)).max(axis=1)
        if i == 1:
            return float(best[0, 0])
        util = best.reshape(x_alph ** (i - 1), y_alph ** (i - 2), y_alph).sum(axis=2)
    return float(util[0, 0])


@dataclass(frozen=True)
class _PreparedChannel:
    """Per-solve constants of a dense channel.

    chan3 is the channel p(y^n || x^n) viewed as (Y^(n-1), Y, X^n).  w is
    its sum over the last output and cl the sum of chan ln chan over it,
    both indexed [x^n, y^(n-1)] like an input kernel.
    """

    kernel: CausalKernel
    chan3: np.ndarray
    w: np.ndarray
    cl: np.ndarray


def _prepare_channel(spec, n, s0):
    kernel = build_sequence_kernel(spec, n, s0, storage="dense").kernel
    y_alph = kernel.out_alphabet
    chan3 = kernel.values.reshape(y_alph ** (n - 1), y_alph, -1)
    ln_c = np.log(chan3, where=chan3 > 0, out=np.zeros_like(chan3))
    w = np.ascontiguousarray(chan3.sum(axis=1).T)
    cl = np.ascontiguousarray((chan3 * ln_c).sum(axis=1).T)
    return _PreparedChannel(kernel, chan3, w, cl)


def _log_pass(ch, kin):
    """Output law p(y^n), its log (0 where p = 0) and S = sum_{y_n} chan ln p(y^n).

    py and ln_py are shaped (Y^(n-1), Y); S is indexed [x^n, y^(n-1)].
    """
    py = np.matmul(ch.chan3, np.ascontiguousarray(kin.T)[:, :, None])[:, :, 0]
    ln_py = np.log(py, where=py > 0, out=np.zeros_like(py))
    return py, ln_py, np.matmul(ln_py[:, None, :], ch.chan3)[:, 0, :].T


def _certificate(ch, kin, py, s, tol):
    """Certificate of kin from one log pass, without its beta map.

    Returns the report with an empty beta and the per-context
    multipliers; _with_beta attaches them.  The gradient of directed
    information is t = cl - S - w.
    """
    t = ch.cl - s - ch.w
    # (x^n, y^(n-1)) pairs that reach an output sequence of probability 0
    undefined = np.einsum("cyx,cy->xc", ch.chan3, (py == 0.0).astype(float)) > 0.0

    support = kin > SUPPORT_THRESHOLD
    weights = np.where(support, kin, 0.0)
    beta = (weights * np.where(undefined, 0.0, t)).sum(axis=0) / weights.sum(axis=0)
    total = float(beta.sum())

    note = ""
    t_eff = np.where(undefined, math.inf, t)
    row_sums = t_eff.sum(axis=1)
    full_support = support.all(axis=1)
    max_support = 0.0
    if full_support.any():
        max_support = float(np.abs(row_sums[full_support] - total).max())
    max_off = 0.0
    if (~full_support).any():
        max_off = max(0.0, float((row_sums[~full_support] - total).max()))
    kernel = ch.kernel
    gap = max(0.0, _polyhedron_max(t_eff, kernel.in_alphabet, kernel.out_alphabet, kernel.n) - total)
    if undefined.any():
        x_idx, c_idx = np.argwhere(undefined)[0]
        note = (
            "zero output probability on a sequence reachable from input "
            f"row {x_idx} (context {c_idx})"
        )
        if (undefined & support).any():
            x_idx, c_idx = np.argwhere(undefined & support)[0]
            max_support = math.inf
            note = (
                "undefined inner term: zero output probability reachable "
                f"from supported input row {x_idx} (context {c_idx})"
            )

    implied = (total + 1.0) / LN2
    passed = max_support <= tol and max_off <= tol and gap <= tol
    return KktReport({}, max_support, max_off, gap, implied, passed, tol, note), beta


def _with_beta(report, beta, ch):
    y_alph, ctx_len = ch.kernel.out_alphabet, ch.kernel.n - 1
    beta_map = {index_sequence(j, y_alph, ctx_len): float(b) for j, b in enumerate(beta)}
    return replace(report, beta=beta_map)


def kkt_check(input_kernel: CausalKernel, spec, n, s0, tol=1e-6) -> KktReport:
    """First-order certificate of the input kernel against the channel."""
    ch = _prepare_channel(spec, n, s0)
    if input_kernel.n != n or input_kernel.out_alphabet != ch.kernel.in_alphabet:
        raise ValueError("input kernel does not match the channel")
    kin = input_kernel.values
    py, _, s = _log_pass(ch, kin)
    return _with_beta(*_certificate(ch, kin, py, s, tol), ch)


def _channel_step_conditionals(chan, x_alph, y_alph, n):
    """Per-step p(y_k | y^{k-1}, x^k) tables for k = 1..n-1.

    prefix[k] is the length-k channel kernel obtained by summing output
    tails; its value does not depend on the input tail, so one column
    per input prefix is kept.
    """
    prefix = [None] * (n + 1)
    prefix[n] = chan
    for k in range(n, 0, -1):
        reduced = prefix[k].reshape(y_alph ** (k - 1), y_alph, x_alph**k).sum(axis=1)
        prefix[k - 1] = reduced.reshape(y_alph ** (k - 1), x_alph ** (k - 1), x_alph)[:, :, 0]
    levels = []
    for k in range(1, n):
        num = prefix[k].reshape(y_alph ** (k - 1), y_alph, x_alph**k)
        den = np.repeat(prefix[k - 1], x_alph, axis=1)[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
        levels.append(cond)
    return levels


def _surrogate_input_step(ch, kin, s, step_conds):
    """Exact maximizer of the surrogate objective for a fixed posterior.

    The utility of each history is the posterior-weighted log posterior,
    (cl - S)/w + ln kin, with LOG_ZERO where kin = 0 and 0 where the
    context is unreachable (w = 0); the resulting softmax recursion is
    solved backwards and the composed causal kernel returned.
    """
    x_alph, y_alph, n = ch.kernel.in_alphabet, ch.kernel.out_alphabet, ch.kernel.n
    with np.errstate(divide="ignore", invalid="ignore"):
        util = np.where(kin > 0, (ch.cl - s) / ch.w + np.log(kin), LOG_ZERO)
    util = np.where(ch.w > 0, util, 0.0)

    steps = [None] * n
    for i in range(n, 0, -1):
        shaped = util.reshape(x_alph ** (i - 1), x_alph, y_alph ** (i - 1))
        value = logsumexp(shaped, axis=1)
        steps[i - 1] = np.exp(shaped - value[:, None, :]).transpose(0, 2, 1)
        if i > 1:
            cond = step_conds[i - 2]  # (Y^(i-2), Y, X^(i-1))
            v_shaped = value.reshape(x_alph ** (i - 1), y_alph ** (i - 2), y_alph)
            util = (cond.transpose(2, 0, 1) * v_shaped).sum(axis=2)
    policy = StepPolicy(x_alph, y_alph, n, 1, tuple(steps))
    return compose_causal(policy).values


def _initial_kernel(spec, n, cfg):
    x_alph = input_alphabet(spec)
    y_alph = output_alphabet(spec)
    if cfg.initialization == "uniform":
        values = np.full((x_alph**n, y_alph ** (n - 1)), x_alph ** (-float(n)))
        return CausalKernel(x_alph, y_alph, n, 1, values)
    return compose_causal(random_policy(x_alph, y_alph, n, 1, np.random.default_rng(cfg.seed)))


def maximize_di_feedback(spec, n, s0, cfg: OptimizerConfig = None):
    """Maximize directed information over causal input kernels.

    Returns (kernel, value in bits, certificate).  Iterates until the
    certificate passes at cfg.kkt_tolerance; if the iteration budget is
    exhausted the best iterate is returned with its failing certificate.
    The certificate equals kkt_check of the returned kernel.
    """
    cfg = cfg or OptimizerConfig()
    ch = _prepare_channel(spec, n, s0)
    x_alph, y_alph = ch.kernel.in_alphabet, ch.kernel.out_alphabet
    step_conds = _channel_step_conditionals(ch.kernel.values, x_alph, y_alph, n)

    kin = _initial_kernel(spec, n, cfg).values
    best = (-math.inf, kin, None, None)
    prev = -math.inf
    stall = 0
    for _ in range(cfg.max_iterations):
        py, ln_py, s = _log_pass(ch, kin)
        value = (float(np.vdot(kin, ch.cl)) - float(np.vdot(py, ln_py))) / LN2
        if -1e-12 < value < 0.0:
            value = 0.0
        if value < prev - 1e-11:
            raise RuntimeError(f"objective decreased from {prev!r} to {value!r}")
        report, beta = _certificate(ch, kin, py, s, cfg.kkt_tolerance)
        if value > best[0]:
            best = (value, kin, report, beta)
        if report.passed:
            kernel = CausalKernel(x_alph, y_alph, n, 1, kin)
            return kernel, value, _with_beta(report, beta, ch)
        stall = stall + 1 if abs(value - prev) < cfg.objective_tolerance else 0
        if stall >= 25:
            break
        prev = value
        kin = _surrogate_input_step(ch, kin, s, step_conds)

    value, kin, report, beta = best
    warnings.warn(
        f"feedback solver stopped without a passing certificate "
        f"(support violation {report.max_violation_support:.3e}, "
        f"off-support violation {report.max_violation_offsupport:.3e})"
    )
    return CausalKernel(x_alph, y_alph, n, 1, kin), value, _with_beta(report, beta, ch)


def maximize_mi_nofeedback(spec, n, s0, cfg: OptimizerConfig = None):
    """Maximize I(X^n; Y^n | s0) over plain input pmfs.

    Classic alternating maximization through the matrix-free channel
    passes; the stopping rule bounds the one-shot optimality residual
    (difference between the largest per-input divergence and the
    achieved value) by cfg.kkt_tolerance nats.  Returns (pmf, value in
    bits).
    """
    cfg = cfg or OptimizerConfig()
    steps, ent = _channel_steps(spec, n, s0)
    x_alph = steps.shape[2]
    size = x_alph**n

    if cfg.initialization == "random":
        rng = np.random.default_rng(cfg.seed)
        p = rng.uniform(0.05, 1.0, size)
        p /= p.sum()
    else:
        p = np.full(size, 1.0 / size)

    prev = -math.inf
    value = 0.0
    converged = False
    for _ in range(cfg.max_iterations):
        q = _forward_pass(steps, s0, n, p)
        ln_q = np.log(q, where=q > 0, out=np.zeros_like(q))
        divergences = _backward_pass(steps, ent, s0, n, ln_q)
        value = float(p @ divergences)
        if value < prev - 1e-11:
            raise RuntimeError(f"objective decreased from {prev!r} to {value!r}")
        prev = value
        if float(divergences.max()) - value <= cfg.kkt_tolerance:
            converged = True
            break
        log_p = np.where(p > 0, np.log(p, where=p > 0, out=np.zeros_like(p)), LOG_ZERO)
        log_p += divergences
        log_p -= logsumexp(log_p)
        p = np.exp(log_p)
    if not converged:
        warnings.warn(
            f"open-loop solver hit the iteration cap with residual "
            f"{float(divergences.max()) - value:.3e} nats"
        )
    return SequencePmf(x_alph, n, p), value / LN2


def upper_bound(spec, n, cfg: OptimizerConfig = None) -> float:
    """Best per-use mutual information over initial states, in bits."""
    best = -math.inf
    for s0 in initial_states(spec):
        _, value = maximize_mi_nofeedback(spec, n, s0, cfg)
        best = max(best, value)
    return best / n


def open_loop_match(
    spec, n, s0, min_entry_tol=1e-10, sum_tol=1e-9, di_gap_tol=1e-8
) -> MatchReport:
    """Solve for the open-loop input that induces the feedback-optimal output.

    The target output law is the symmetric Markov chain of the family's
    closed form; the input is recovered through the block-recursive
    inverse of the sequence kernel and checked for validity and for
    attaining n times the closed-form capacity.
    """
    sol = closed_form_solution(spec, markov=True)
    delta = sol.output_markov_transition
    # Left to right: the inverse's size check runs before the target is built.
    raw = invert_sequence_kernel(spec, n, s0) @ output_markov_pmf(delta, n, s0).values
    min_entry = float(raw.min())
    total = float(raw.sum())

    pmf = SequencePmf(2, n, np.maximum(raw, 0.0) / total)
    chan = build_sequence_kernel(spec, n, s0, storage="dense").kernel
    di = directed_information(open_loop_kernel(pmf, 2), chan)
    di_gap = abs(di - n * sol.capacity_bits)
    passed = min_entry >= -min_entry_tol and abs(total - 1.0) <= sum_tol and di_gap <= di_gap_tol
    return MatchReport(min_entry, total, di_gap, passed, pmf)
