"""Maximization of directed information and its optimality certificates.

The feedback solver is exact.  The channel's state is the previous
output, which the encoder learns through the feedback, so the best
directed information over n uses is an n-stage dynamic program over the
output state (Chen & Berger, IEEE T-IT 51(3), 2005; Permuter, Cuff,
Van Roy & Weissman, IEEE T-IT 54(7), 2008).  The open-loop solver
maximizes over plain input pmfs matrix-free, one channel position at a
time for q = W p and for the divergences of W from q.  upper_bound runs
the same loop on input orbits where the channel has free labels
(MaryPost): I(X^n; Y^n | s0) is concave and invariant under relabelling
them, so it iterates on orbit masses through one sparse lumped channel
and never forms a per-sequence pmf.  The lumped channel keeps its
nonzeros in input-orbit order and the orbit sizes folded into its
entropy term, so a pass is one np.repeat of the law, two np.bincount
products and one log.  Both solvers run the same Blahut-Arimoto update,
p exp(D - max D) renormalized; the open-loop loop over-relaxes it (Matz
& Duhamel, ITW 2004) and falls back to the plain step whenever an
over-relaxed one lowers the objective.  A feedback stage on a square
invertible matrix starts from its closed-form stationary point (Muroga,
1953), which, when it is a law, is the stage's optimum.  The open-loop
loop yields its kept iterates, so upper_bound races its start states and
drops each one whose Arimoto bound falls below the best value kept.

Certificates: the feedback solver certifies itself.  Beside the stage
values L_r of the policy it returns, the DP carries an upper recursion
U_r from the same stage laws: Arimoto's inequality bounds every stage
problem by the largest divergence plus bonus at any law, and the bonus
is monotone in the values of the next stage, so by induction U_n(s0)
bounds the n-stage optimum and [L_n(s0), U_n(s0)] is a proven interval
(see _feedback_stages, which runs that DP on relative values and holds
only the n stage laws: the CLI's feedback checks read its interval and
nothing else).  kkt_check is an independent
dense cross-check of any causal kernel, for the library: a first-order
report with one multiplier per output context, in nats from one log
pass over the dense |Y|^n x |X|^n channel's output law; the implied
capacity (sum of multipliers plus one) is in bits.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    _channel_steps,
    _check_causal_kernel,
    _check_entries,
    _check_lumped_size,
    _check_pass_size,
    _check_start,
    _class_inverse,
    _divergences,
    _forward_pass,
    _lumped_channel,
    build_sequence_kernel,
    initial_states,
    input_alphabet,
    output_alphabet,
)
from .closed_form import closed_form_solution
from .construction import _open_loop_input, _output_state_policy, output_markov_pmf
from .directed_info import mutual_information_given_state
from .probability import LN2, CausalKernel, SequencePmf, _freeze, compose_causal

# Input-kernel entries above this count as supported in the certificate.
SUPPORT_THRESHOLD = 1e-8

# Arimoto gaps (nats) of a feedback stage problem: Blahut-Arimoto down to
# BA_GAP, Newton steps down to STAGE_GAP.  A looser STAGE_GAP leaves a zero
# optimal weight above SUPPORT_THRESHOLD (MaryPost(4): 2e-5 at 1e-7).
BA_GAP = 1e-3
STAGE_GAP = 1e-12

# Largest multiplier of the open-loop solver's over-relaxed step
# p <- p exp(mu D) / Z (Matz & Duhamel, ITW 2004).
MU_MAX = 64.0

# Bounds of open_loop_match: the raw input's least entry may fall this far
# below 0 and its sum this far from 1, its output this far from the target
# law (entrywise), and its mutual information this far from n C (bits).
MATCH_MIN_ENTRY_TOL = 1e-10
MATCH_SUM_TOL = 1e-9
MATCH_OUTPUT_GAP_TOL = 1e-10
MATCH_DI_GAP_TOL = 1e-8


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
    """Iteration budget, tolerance and start of the solvers.

    max_iterations bounds the open-loop solve and each feedback stage problem;
    the open-loop solver counts channel passes, rejected steps included.
    kkt_tolerance (nats) bounds the width of the feedback solver's proven interval and the
    open-loop Gallager residual.
    initialization and seed pick the open-loop start; the feedback solver ignores them.
    """

    max_iterations: int = 5000
    kkt_tolerance: float = 1e-6
    initialization: str = "uniform"
    seed: int = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not self.kkt_tolerance > 0:  # also rejects NaN
            raise ValueError("tolerances must be positive")
        if self.initialization not in ("uniform", "random"):
            raise ValueError("initialization must be 'uniform' or 'random'")


@dataclass
class KktReport:
    """First-order optimality certificate for a feedback input kernel.

    beta holds, for each output context y^{n-1} in sequence order, the
    support-weighted mean of the inner expression over that context
    (nats); implied_capacity, (sum of the multipliers + 1) in bits, is
    the n-letter capacity, not a per-use rate.

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

    beta: np.ndarray
    max_violation_support: float
    max_violation_offsupport: float
    polyhedron_gap: float
    implied_capacity: float
    passed: bool
    tol: float


@dataclass(frozen=True)
class FeedbackReport:
    """Proven interval of the feedback solver's n-stage optimum.

    lower_bits is the directed information of the returned policy and
    upper_bits an upper bound on the best over all causal kernels, both
    in bits.  polyhedron_gap is their distance in nats, a proven bound on
    the policy's distance from the optimum; passed says it is at most
    tol.  max_violation_support is the largest value minus least
    divergence-plus-bonus on a stage law's support over all stages (nats).
    """

    lower_bits: float
    upper_bits: float
    passed: bool
    tol: float
    polyhedron_gap: float
    max_violation_support: float


@dataclass
class MatchReport:
    """Validity of the open-loop input built for the target output law."""

    min_entry: float
    total: float
    output_gap: float
    di_gap: float
    passed: bool
    input_pmf: SequencePmf = field(repr=False, default=None)


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


def _certificate(channel: CausalKernel, kin, tol):
    """KktReport of kin through channel, from one log pass over the dense channel.

    The channel p(y^n || x^n) is viewed as (Y^(n-1), Y, X^n): with w and
    cl the sums of chan and chan ln chan over the last output, and
    S = sum_{y_n} chan ln p(y^n), all indexed [x^n, y^(n-1)] like kin,
    the gradient of directed information is t = cl - S - w.
    """
    x_alph, y_alph, n = channel.in_alphabet, channel.out_alphabet, channel.n
    chan3 = channel.values.reshape(y_alph ** (n - 1), y_alph, -1)
    ln_c = np.log(chan3, where=chan3 > 0, out=np.zeros_like(chan3))
    w = np.ascontiguousarray(chan3.sum(axis=1).T)
    cl = np.ascontiguousarray((chan3 * ln_c).sum(axis=1).T)
    del ln_c  # channel-sized: held through the log pass, it costs kkt_check about 5% (heap churn)
    py = np.matmul(chan3, np.ascontiguousarray(kin.T)[:, :, None])[:, :, 0]
    ln_py = np.log(py, where=py > 0, out=np.zeros_like(py))
    s = np.matmul(ln_py[:, None, :], chan3)[:, 0, :].T
    t = cl - s - w
    # (x^n, y^(n-1)) pairs that reach an output sequence of probability 0
    undefined = np.einsum("cyx,cy->xc", chan3, (py == 0.0).astype(float)) > 0.0

    support = kin > SUPPORT_THRESHOLD
    weights = np.where(support, kin, 0.0)
    beta = (weights * np.where(undefined, 0.0, t)).sum(axis=0) / weights.sum(axis=0)
    total = float(beta.sum())

    t_eff = np.where(undefined, math.inf, t)
    row_sums = t_eff.sum(axis=1)
    full_support = support.all(axis=1)
    max_support = 0.0
    if full_support.any():
        max_support = float(np.abs(row_sums[full_support] - total).max())
    max_off = 0.0
    if (~full_support).any():
        max_off = max(0.0, float((row_sums[~full_support] - total).max()))
    gap = max(0.0, _polyhedron_max(t_eff, x_alph, y_alph, n) - total)
    if (undefined & support).any():
        max_support = math.inf

    implied = (total + 1.0) / LN2
    passed = max_support <= tol and max_off <= tol and gap <= tol
    return KktReport(beta, max_support, max_off, gap, implied, passed, tol)


def kkt_check(input_kernel: CausalKernel, spec, n, s0, tol=1e-6) -> KktReport:
    """First-order certificate of the input kernel against the channel."""
    channel = build_sequence_kernel(spec, n, s0).kernel
    if input_kernel.n != n or input_kernel.out_alphabet != channel.in_alphabet:
        raise ValueError("input kernel does not match the channel")
    return _certificate(channel, input_kernel.values, tol)


def _ba_step(p, divergences):
    """One Blahut-Arimoto update p <- p exp(divergences) / Z.

    The exponent is shifted by the largest divergence, so it is at most 0
    and a zero mass stays 0.
    """
    w = np.exp(divergences - divergences.max())
    w *= p
    return w / w.sum()


def _newton_step(mat, p, q, d, value):
    """Newton step toward equal d on the support face, with a ratio test.

    The best input joins once its excess over the value is twice the
    support's.  A 1e-10 relative shift of the Hessian lets the step follow
    a direction in which W p stays put (equal columns, more inputs than
    outputs) to the boundary, where the input leaves the face, unless it is
    the only supported input to reach some output: such an input has a
    positive optimal weight, and the step stops halfway to its zero.
    """
    face = p > 0
    if 2.0 * (d[face].max() - value) < d.max() - value:
        face[d.argmax()] = True
    live, k = mat[q > 0][:, face], face.sum()
    hess = (live / q[q > 0, None]).T @ live
    system = np.empty((k + 1, k + 1))
    system[:k, :k] = hess
    system.flat[: k * (k + 2) : k + 2] += 1e-10 * hess.max()
    system[k, :k] = system[:k, k] = 1.0
    system[k, k] = 0.0
    step = np.zeros_like(p)
    step[face] = np.linalg.solve(system, np.append(d[face], 0.0))[:-1]
    reach = (mat > 0) & (p > 0)
    sole = reach[reach.sum(axis=1) == 1].any(axis=0)
    ratios = np.divide(p, -step, out=np.full_like(p, np.inf), where=step < 0)
    ratios[sole] /= 2.0
    p = np.maximum(p + min(1.0, ratios.min()) * step, 0.0)
    if ratios.min() <= 1.0 and not sole[ratios.argmin()]:
        p[ratios.argmin()] = 0.0
    return p / p.sum()


def _stage_law(mat, bonus, max_iterations, start=None, inverse=None):
    """Input law maximizing sum_x p(x) [D(W(.|x) || W p) + bonus(x)], and the maximum (nats).

    mat is W, rows y.  From the uniform law, Blahut-Arimoto runs until the
    Arimoto gap first falls to BA_GAP; Newton steps, which alone readmit a
    dropped input, then take it to STAGE_GAP.  Given a start law, Newton
    steps run from it at once: a start may hold inputs at exactly 0 that
    this problem needs, and Blahut-Arimoto never moves a zero.

    Given inverse = W^-1 of a square W, the start is instead the
    problem's stationary point, when it is a law (Muroga, J. Phys. Soc.
    Japan 8(4), 1953).  With ent(x) = sum_y W ln W, a law with every
    input at one value lambda solves W^T ln q = ent + bonus - lambda 1;
    the columns of W sum to 1, so W^-T 1 = 1 and ln q = z - lambda with
    z = W^-T (ent + bonus): q = softmax z and p = W^-1 q, used when
    p >= 0 and rescaled to sum to 1 against rounding.  Such a law is the
    maximum, and Newton steps start from it.

    Every evaluation counts against max_iterations, and only the
    evaluation certifies.  Returns the last law evaluated, its value and
    its divergences plus bonus d, so the value is always the law's own.
    """
    ent = (mat * np.log(mat, where=mat > 0, out=np.zeros_like(mat))).sum(axis=0)
    if inverse is not None:
        z = (ent + bonus) @ inverse
        q = np.exp(z - z.max())
        stationary = inverse @ q
        if stationary.min() >= 0.0:
            start = stationary / stationary.sum()
    newton = start is not None
    p = start if newton else np.full(mat.shape[1], 1.0 / mat.shape[1])
    for _ in range(max_iterations):
        law, q = p, mat @ p
        d = ent - np.log(q, where=q > 0, out=np.zeros_like(q)) @ mat + bonus
        value = float(law @ d)
        gap = float(d.max()) - value
        if gap <= STAGE_GAP and value - d[law > 0].min() <= STAGE_GAP:
            break
        newton = newton or gap <= BA_GAP
        p = _newton_step(mat, law, q, d, value) if newton else _ba_step(law, d)
    return law, value, d


def _feedback_stages(spec, n, s0, cfg):
    """The feedback DP over the output state: (stage laws, value in bits, FeedbackReport).

    The laws are the DP's Markov policy: laws[i - 1][s] is the law of
    x_i in state s = y_(i-1), with y_0 = s0.  r stages before the end it
    is the law p_r that _stage_law finds for (one problem per state class)
    max_p sum_x p(x) [D(W_s(.|x) || W_s p) + sum_y W_s(y|x) L_(r-1)(y)],
    and L_r(s), the sum at p = p_r (L_0 = 0), is the value of the
    policy's last r stages: the value returned, L_n(s0) / ln 2, is the
    policy's own directed information.  The stage laws converge to the
    stationary feedback policy as r grows, so the first stage starts from
    the uniform law and each later one starts Newton steps from the
    previous stage's law of its class (see _stage_law: Blahut-Arimoto
    could not readmit an input that law holds at 0).  A class whose
    matrix is square with |det| > SINGULAR_DET is inverted once per
    solve, and each of its stages starts instead from the stage's
    closed-form stationary point when that is a law (see _stage_law).  A
    stage whose optimal law gives every input positive mass, as every
    PostAlpha and PostAB stage tried does, then certifies at its first
    evaluation.

    The values are relative: after each stage their least moves into a
    scalar offset, and L_n(s0) is lower[s0] + offset.  A constant bonus
    moves no stage law, since every column of W_s sums to 1.  Absolute
    values reach about 1e4 nats at n = 40,000, and the stationary starts
    then stop certifying within STAGE_GAP.

    The report's upper side is, with U_0 = 0,
    U_r(s) = max_x [D(W_s(.|x) || W_s p_r) + sum_y W_s(y|x) U_(r-1)(y)].
    The state of a POST channel is its previous output, so the optimum
    V_r over causal kernels obeys the recursion of L_r with V in place of
    L (Chen & Berger, IEEE T-IT 51(3), 2005).  For any law p' the
    capacity with bonus b is at most max_x [D(W(.|x) || W p') + b(x)]
    (Arimoto, IEEE T-IT 18(1), 1972), and the bonus grows with the
    values it sums, so V_(r-1) <= U_(r-1) gives V_r <= U_r: by induction
    L_n(s0) <= V_n(s0) <= U_n(s0).  The recursion runs on U_r - L_r,
    clamped at 0 (which only raises the bound), and the report passes
    when U_n(s0) - L_n(s0) <= cfg.kkt_tolerance nats; a budget stop
    shows as a wide interval.  The laws' n |Y| |X| entries are all that
    is held: above DENSE_ENTRY_CAP they raise before spec.class_matrices
    is read.  cfg.initialization and cfg.seed are not read.
    """
    _check_start(spec, n, s0)
    _check_entries("feedback stage laws", n * output_alphabet(spec) * input_alphabet(spec))
    classes, mats = spec.state_classes, spec.class_matrices
    # per state: lower is L_r - offset, gap is U_r - L_r
    lower, gap, offset, support = np.zeros(len(classes)), np.zeros(len(classes)), 0.0, 0.0
    laws = np.empty((n, len(classes), input_alphabet(spec)))
    solved = dict.fromkeys(mats, (None,))
    inverses = {c: _class_inverse(w) for c, w in mats.items()}
    for i in range(n - 1, -1, -1):
        solved = {
            c: _stage_law(w, lower @ w, cfg.max_iterations, solved[c][0], inverses[c])
            for c, w in mats.items()
        }
        gaps = {c: max(0.0, float((d + gap @ mats[c]).max()) - v) for c, (_, v, d) in solved.items()}
        support = max(support, *(v - float(d[p > 0].min()) for p, v, d in solved.values()))
        values = np.array([solved[c][1] for c in classes])
        lower, offset = values - values.min(), offset + float(values.min())
        gap = np.array([gaps[c] for c in classes])
        laws[i] = [solved[c][0] for c in classes]
    value, width, tol = float(lower[s0]) + offset, float(gap[s0]), cfg.kkt_tolerance
    report = FeedbackReport(value / LN2, (value + width) / LN2, width <= tol, tol, width, support)
    return laws, value / LN2, report


def maximize_di_feedback(spec, n, s0, cfg: OptimizerConfig = None):
    """Maximize directed information over causal input kernels.

    Returns (kernel, value in bits, FeedbackReport).  The DP lives in
    _feedback_stages, which carries relative values; the kernel is its
    stage laws composed into the policy's causal kernel.  No
    sequence-level channel is built: a composed kernel above
    DENSE_ENTRY_CAP entries, |X|^n |Y|^(n-1), raises before the first
    stage.  cfg.initialization and cfg.seed are not read.
    """
    cfg = cfg or OptimizerConfig()
    _check_causal_kernel(spec, n, s0)
    laws, value, report = _feedback_stages(spec, n, s0, cfg)
    return compose_causal(_output_state_policy(laws, s0)), value, report


def _over_relaxed_ba(divergences_of, p, cfg):
    """Safeguarded over-relaxed Blahut-Arimoto from the law p: a generator of kept iterates.

    p <- p exp(mu D) / Z, with D = divergences_of(p) the per-input
    divergences.  mu starts at 1 and doubles after each step from a kept
    iterate, up to MU_MAX.  A step with mu > 1 that lowers the objective
    is rejected: the plain step (mu = 1, which never lowers it) is taken
    from the last kept iterate instead, and mu starts again at 1.  Yields
    (law, value, top) per kept iterate, value = p . D and top = max D in
    nats: the capacity is at most top whatever the law (Arimoto, IEEE
    T-IT 18(1), 1972).  Stops after the first iterate whose residual
    top - value is at most cfg.kkt_tolerance, or once cfg.max_iterations
    evaluations of divergences_of are spent.
    """
    # mu is the multiplier of the next step from a kept iterate; over
    # records whether p came from a step with mu > 1
    mu, over, prev = 1.0, False, -math.inf
    for _ in range(cfg.max_iterations):
        divergences = divergences_of(p)
        value = float(p @ divergences)
        if over and value < prev:
            p, mu, over = _ba_step(kept, kept_divergences), 1.0, False
            continue
        if value < prev - 1e-11:
            raise RuntimeError(f"objective decreased from {prev!r} to {value!r}")
        kept, kept_divergences, prev = p, divergences, value
        top = float(divergences.max())
        yield p, value, top
        if top - value <= cfg.kkt_tolerance:
            return
        p, over = _ba_step(p, mu * divergences), mu > 1.0
        mu = min(2.0 * mu, MU_MAX)


def _start_law(weights, cfg):
    """Normalized start law: weights, times seeded uniform(0.05, 1) draws under random initialization."""
    if cfg.initialization == "random":
        weights = weights * np.random.default_rng(cfg.seed).uniform(0.05, 1.0, len(weights))
    return weights / weights.sum()


def _open_loop_iterates(spec, n, s0, cfg, lumped):
    """_over_relaxed_ba of I(X^n; Y^n | s0) on sequence pmfs, or on the lumped channel's orbit masses.

    lumped is None for sequence pmfs, else the return of
    _check_lumped_size(spec, n, s0).  The start is the uniform sequence
    law (orbit masses proportional to the orbit sizes), times seeded
    draws under cfg.initialization "random".
    """
    if lumped is not None:
        channel = _lumped_channel(spec, n, s0, lumped)
        return _over_relaxed_ba(channel.divergences, _start_law(channel.sizes, cfg), cfg)
    steps, ent = _channel_steps(spec, n, s0)
    p = _start_law(np.ones(steps.shape[2] ** n), cfg)
    return _over_relaxed_ba(lambda law: _divergences(steps, ent, s0, n, law), p, cfg)


def maximize_mi_nofeedback(spec, n, s0, cfg: OptimizerConfig = None):
    """Maximize I(X^n; Y^n | s0) over plain input pmfs.

    _over_relaxed_ba through the matrix-free channel passes, from the
    uniform pmf or, with cfg.initialization "random", a seeded random
    one.  Returns (pmf, value in bits, residual in nats) of the last kept
    iterate.  The residual exceeds cfg.kkt_tolerance exactly when the
    budget of cfg.max_iterations channel passes ran out first; the
    optimum is at most value plus residual / ln 2 bits (Arimoto, IEEE
    T-IT 18(1), 1972).
    """
    cfg = cfg or OptimizerConfig()
    for pmf, value, top in _open_loop_iterates(spec, n, s0, cfg, lumped=None):
        pass
    return SequencePmf(input_alphabet(spec), n, pmf), value / LN2, top - value


def _check_upper_bound_size(spec, n):
    """Raise ValueError, allocating little, unless every solve of upper_bound(spec, n) fits.

    Returns, per initial state, _check_lumped_size's return for a spec
    with free labels, else None.
    """
    check = _check_lumped_size if spec.free_labels else _check_pass_size
    return {s0: check(spec, n, s0) for s0 in initial_states(spec)}


def upper_bound(spec, n, cfg: OptimizerConfig = None, checked=None):
    """(best per-use mutual information over initial states in bits, width of its proven interval in nats).

    Each initial state's solve is maximize_mi_nofeedback's, except that
    a spec with free labels runs the same loop on the orbit masses of its
    lumped channel.  Every sequence iterate is then constant on orbits,
    and so are its divergences, so the orbit masses are those of the
    sequence solve from the same law in exact arithmetic; in floating
    point the over-relaxed steps can amplify rounding into a different
    path to the same optimum.

    The solves race, one kept iterate per running state per round.  A
    state's capacity is at most its largest divergence max_x D_s(x)
    (Arimoto, IEEE T-IT 18(1), 1972), so a state stops once that is
    strictly below the best value kept by any state; the others run as
    they would alone, until certified or out of their own budget, so the
    value is that of every solve run to the end.  The width is the
    largest last divergence over states minus the best value: the
    maximum is proven within value + width / (n ln 2) bits per use.
    Every solve's size is checked before the first starts, unless the
    caller passes what _check_upper_bound_size(spec, n) returned as
    checked.
    """
    cfg = cfg or OptimizerConfig()
    checked = checked or _check_upper_bound_size(spec, n)
    running = {s0: _open_loop_iterates(spec, n, s0, cfg, lumped) for s0, lumped in checked.items()}
    last = {}  # per state, (value, top) of its last kept iterate
    while running:
        for s0, iterates in list(running.items()):
            kept = next(iterates, None)
            if kept is None:
                del running[s0]
            else:
                last[s0] = kept[1:]
        best = max(value for value, _ in last.values())
        running = {s0: iterates for s0, iterates in running.items() if last[s0][1] >= best}
    return best / LN2 / n, max(top for _, top in last.values()) - best


def open_loop_match(spec, n, s0) -> MatchReport:
    """Check the open-loop input that induces the feedback-optimal output.

    The target output law is the symmetric Markov chain of the family's
    closed form, and the raw input is the last level of the vector
    recursion p_s = W_s^-1 q_s (construction._open_loop_input).  min_entry
    and total are that raw input's smallest entry and sum.  output_gap,
    max |W p - q|, checks it independently: the forward channel pass runs
    the channel on the raw input and never touches an inverse.  di_gap is
    the distance of the clipped, normalized input's mutual information
    from n times the closed-form capacity, in bits.  No matrix is built;
    the vector recursion and the channel passes check their sizes, so
    binary channels go up to n = 20.
    """
    sol = closed_form_solution(spec, markov=True)
    raw = _open_loop_input(spec, n, s0).values
    steps, _ = _channel_steps(spec, n, s0)
    target = output_markov_pmf(sol.output_markov_transition, n, s0).values
    output_gap = float(np.abs(_forward_pass(steps, s0, n, raw) - target).max())
    min_entry = float(raw.min())
    total = float(raw.sum())

    clipped = np.maximum(raw, 0.0)
    clipped /= total
    del raw, target  # 8 MiB each at n = 20, not held through the mutual information pass
    pmf = SequencePmf(2, n, _freeze(clipped))
    di_gap = abs(mutual_information_given_state(spec, n, s0, pmf) - n * sol.capacity_bits)
    passed = (
        min_entry >= -MATCH_MIN_ENTRY_TOL
        and abs(total - 1.0) <= MATCH_SUM_TOL
        and output_gap <= MATCH_OUTPUT_GAP_TOL
        and di_gap <= MATCH_DI_GAP_TOL
    )
    return MatchReport(min_entry, total, output_gap, di_gap, passed, pmf)
