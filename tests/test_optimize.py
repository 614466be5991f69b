import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from pytest import approx

from postcap import (
    CustomPost,
    MaryPost,
    PostAB,
    PostAlpha,
    OptimizerConfig,
    SequencePmf,
    binary_dmc_capacity,
    build_sequence_kernel,
    closed_form_solution,
    compose_causal,
    directed_information,
    kkt_check,
    maximize_di_feedback,
    maximize_mi_nofeedback,
    mutual_information_given_state,
    open_loop_match,
    output_markov_pmf,
    post_alpha_capacity,
    random_policy,
    recursive_input_ab,
    recursive_input_alpha,
    upper_bound,
)
from postcap import channels, optimize
from postcap.channels import DENSE_ENTRY_CAP, SingularChannelError
from postcap.closed_form import mary_horizon_values
from postcap.construction import _input_levels
from postcap.probability import LN2

from channel_cases import PASS_SPECS, STAGE_EDGE_CASES, TWO_INPUT_CUSTOM
from dense_reference import feedback_policy, open_loop_kernel, output_state_policy, validate_causal

TIGHT = OptimizerConfig(max_iterations=20000, kkt_tolerance=1e-7)


# -- feedback solver ----------------------------------------------------------


def test_feedback_solver_single_step_z_channel():
    kernel, value, report = maximize_di_feedback(PostAlpha(0.5), 1, 0, TIGHT)
    assert value == approx(0.321928, abs=1e-6)
    assert report.passed
    assert kernel.values[:, 0] == approx([0.6, 0.4], abs=1e-6)


def test_feedback_solver_three_steps_per_use():
    _, value, report = maximize_di_feedback(PostAlpha(0.5), 3, 0, TIGHT)
    assert value / 3 == approx(0.321928, abs=1e-6)
    assert report.passed


def test_feedback_solver_symmetric_channel():
    _, value, report = maximize_di_feedback(PostAB(0.9, 0.9), 1, 0, TIGHT)
    assert value == approx(0.531004, abs=1e-6)
    assert report.passed


def test_feedback_solver_iterates_are_valid_kernels():
    kernel, _, _ = maximize_di_feedback(PostAB(0.8, 0.6), 3, 0, TIGHT)
    assert validate_causal(kernel).passed


def test_feedback_solver_matches_closed_form_across_alphas():
    for alpha in np.linspace(0.1, 0.9, 9):
        want = post_alpha_capacity(alpha).capacity_bits
        for n in (1, 2, 3, 4):
            _, value, report = maximize_di_feedback(PostAlpha(alpha), n, 0, TIGHT)
            assert report.passed
            assert value / n == approx(want, abs=1e-5)


def test_random_restarts_agree():
    # the open-loop solver reads initialization and seed; every start reaches the same value
    for spec, n in ((PostAlpha(0.4), 4), (MaryPost(2), 3)):
        values, pmfs = [], []
        for init, seed in (("uniform", None), ("random", 1), ("random", 2), ("random", 3)):
            cfg = OptimizerConfig(
                max_iterations=20000, kkt_tolerance=1e-8, initialization=init, seed=seed
            )
            pmf, value, residual = maximize_mi_nofeedback(spec, n, 0, cfg)
            assert residual <= cfg.kkt_tolerance
            values.append(value)
            pmfs.append(pmf.values.tobytes())
        assert len(set(pmfs)) == 4
        assert max(values) - min(values) < 1e-10


def test_solver_reports_nonconvergence():
    # MaryPost's state m has a singular matrix, so its stages iterate
    cfg = OptimizerConfig(max_iterations=3, kkt_tolerance=1e-12)
    _, _, report = maximize_di_feedback(MaryPost(2), 3, 0, cfg)
    assert not report.passed


@pytest.mark.parametrize("budget", [1, 2, 5])
def test_stage_law_returns_the_value_of_its_law_at_the_budget(budget):
    mat = MaryPost(4).class_matrices[0]
    p, value, d = optimize._stage_law(mat, np.zeros(mat.shape[1]), budget)
    q = mat @ p
    # sum_x p(x) D(W(.|x) || W p) in nats, with 0 log 0 = 0
    logs = np.log(np.where(mat > 0, mat, 1.0) / q[:, None])
    assert value == approx(float(p @ (mat * logs).sum(axis=0)), abs=1e-12)
    assert p.sum() == approx(1.0, abs=1e-12)
    assert value == float(p @ d)


def test_solver_report_is_certificate_of_its_kernel():
    # the solver's proven interval passes exactly where the dense certificate
    # of its kernel does, also for the kernel of a budget stop, and its lower
    # end is that kernel's directed information
    random = OptimizerConfig(max_iterations=20000, kkt_tolerance=1e-7, initialization="random", seed=7)
    budget = OptimizerConfig(max_iterations=3, kkt_tolerance=1e-12)
    cases = [
        (PostAlpha(0.3), 4, 0, TIGHT),
        (PostAB(0.9, 0.7), 4, 1, TIGHT),
        (MaryPost(3), 2, 0, random),
        # a budget stop needs a stage that iterates: MaryPost's state m is singular
        (MaryPost(2), 3, 0, budget),
        # an optimal input weight of zero with a zero derivative (MaryPost(4),
        # every state) and the slow strip a + b - 1 < 0.15 certify too
        *((MaryPost(4), n, s0, TIGHT) for n in (1, 2, 3) for s0 in range(5)),
        (PostAB(0.6, 0.5), 8, 0, TIGHT),
        (PostAB(0.6685, 0.4321), 3, 0, TIGHT),
        (PostAB(0.6685, 0.4321), 3, 1, TIGHT),
        *((spec, n, s0, TIGHT) for spec, n, s0 in STAGE_EDGE_CASES),
    ]
    for spec, n, s0, cfg in cases:
        kernel, value, report = maximize_di_feedback(spec, n, s0, cfg)
        assert report.passed == (cfg is not budget)
        assert report.passed == kkt_check(kernel, spec, n, s0, cfg.kkt_tolerance).passed
        chan = build_sequence_kernel(spec, n, s0).kernel
        assert value == report.lower_bits
        assert abs(report.lower_bits - directed_information(kernel, chan)) <= 1e-12
        width = report.upper_bits - report.lower_bits
        assert width >= 0.0
        assert width == approx(report.polyhedron_gap / math.log(2.0), rel=1e-6, abs=1e-15)
        if report.passed:
            assert width <= report.tol
            # every stage stopped on its own rule, not on the budget
            assert 0.0 <= report.max_violation_support <= optimize.STAGE_GAP


def test_solver_upper_bound_holds_for_random_kernels():
    # upper_bits bounds the directed information of every causal kernel,
    # and a budget stop's wide interval still holds the optimum
    rng = np.random.default_rng(31)
    # a budget stop needs a stage that iterates: PostAB's stages certify at
    # their first evaluation, MaryPost's singular state m iterates
    for spec, n, budgets in ((PostAB(0.9, 0.7), 4, ()), (MaryPost(3), 3, (1, 2))):
        x, y = channels.input_alphabet(spec), channels.output_alphabet(spec)
        _, _, report = maximize_di_feedback(spec, n, 0, TIGHT)
        chan = build_sequence_kernel(spec, n, 0).kernel
        for _ in range(20):
            kin = compose_causal(random_policy(x, y, n, 1, rng))
            assert directed_information(kin, chan) <= report.upper_bits
        for budget in budgets:
            _, _, stopped = maximize_di_feedback(spec, n, 0, OptimizerConfig(max_iterations=budget))
            assert not stopped.passed
            assert stopped.lower_bits <= report.lower_bits + 1e-12
            assert stopped.upper_bits >= report.upper_bits - 1e-12


def test_solver_builds_no_sequence_channel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the feedback solve built a dense channel or certificate")

    monkeypatch.setattr(optimize, "build_sequence_kernel", refuse)
    monkeypatch.setattr(optimize, "_certificate", refuse)
    _, value, report = maximize_di_feedback(PostAB(0.9, 0.7), 8, 0, TIGHT)
    assert report.passed
    assert value / 8 == approx(binary_dmc_capacity(0.9, 0.7).capacity_bits, abs=1e-6)


def test_solver_size_guard_raises_before_the_first_stage(monkeypatch):
    # the composed kernel holds |X|^n |Y|^(n-1) entries
    def refuse(*args):
        raise AssertionError("a stage problem ran")

    monkeypatch.setattr(optimize, "_stage_law", refuse)
    for spec, n in ((PostAlpha(0.5), 11), (MaryPost(4), 5)):
        with pytest.raises(ValueError, match="causal kernel would hold"):
            maximize_di_feedback(spec, n, 0)
    with pytest.raises(ValueError, match="positive"):
        maximize_di_feedback(PostAlpha(0.5), 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        maximize_di_feedback(PostAlpha(0.5), 2, 2)
    monkeypatch.undo()
    kernel, _, report = maximize_di_feedback(PostAlpha(0.5), 10, 0, TIGHT)
    assert report.passed
    assert kernel.values.size == 2**19


def _random_custom(rng):
    """CustomPost with 2 or 3 outputs and inputs; about 30% of the entries are 0."""
    y, x = rng.integers(2, 4, size=2)
    mats = []
    for _ in range(y):
        mat = rng.uniform(size=(y, x)) * (rng.uniform(size=(y, x)) > 0.3)
        mat[rng.integers(y, size=x), np.arange(x)] += 0.1
        mats.append(mat / mat.sum(axis=0))
    return CustomPost(tuple(mats))


def _cold_start_solve(stage_law, spec, n, s0, cfg):
    """The feedback DP with every stage from the uniform law.

    Returns the stage values (nats) in solve order and the value (bits) of
    the composed policy.  Like the solver, it carries relative values: the
    least value is subtracted after each stage, which moves no stage law.
    """
    classes, mats = spec.state_classes, spec.class_matrices
    values, laws, stages = np.zeros(len(classes)), [], []
    for _ in range(n):
        solved = {c: stage_law(w, values @ w, cfg.max_iterations) for c, w in mats.items()}
        stages.extend(solved[c][1] for c in mats)
        values = np.array([solved[c][1] for c in classes])
        values -= values.min()
        laws.insert(0, np.array([solved[c][0] for c in classes]))
    kernel = compose_causal(output_state_policy(laws, s0))
    channel = build_sequence_kernel(spec, n, s0).kernel
    return np.array(stages), directed_information(kernel, channel)


def _iterative_solve(monkeypatch, spec, n, s0):
    """maximize_di_feedback(spec, n, s0, TIGHT) with no stage started from its closed form."""
    monkeypatch.setattr(optimize, "_class_inverse", lambda mat: None)
    solve = maximize_di_feedback(spec, n, s0, TIGHT)
    monkeypatch.undo()
    return solve


def _counted_solve(monkeypatch, spec, n, s0):
    """maximize_di_feedback(spec, n, s0, TIGHT) and the number of Blahut-Arimoto and Newton steps it took."""
    steps, ba, newton = [], optimize._ba_step, optimize._newton_step
    monkeypatch.setattr(optimize, "_ba_step", lambda *args: steps.append(1) or ba(*args))
    monkeypatch.setattr(optimize, "_newton_step", lambda *args: steps.append(1) or newton(*args))
    solve = maximize_di_feedback(spec, n, s0, TIGHT)
    monkeypatch.undo()
    return solve, len(steps)


@pytest.mark.parametrize(
    "spec, n, s0",
    [
        (PostAlpha(0.3), 4, 0),
        (PostAlpha(0.5), 3, 0),
        (PostAB(0.9, 0.7), 4, 1),
        (PostAB(0.6, 0.5), 8, 0),
        (PostAB(0.6685, 0.4321), 3, 0),
        (PostAB(0.6685, 0.4321), 3, 1),
        (PostAB(0.3, 0.9), 5, 0),
        # |det W_s| = 1e-4: above SINGULAR_DET, the closed form still holds
        (PostAB(0.5, 0.5001), 4, 0),
    ],
)
def test_binary_stages_certify_at_their_closed_form(spec, n, s0, monkeypatch):
    # every stage certifies at its first evaluation: no step is taken
    (_, value, report), steps = _counted_solve(monkeypatch, spec, n, s0)
    assert steps == 0
    assert report.passed
    assert 0.0 <= report.max_violation_support <= optimize.STAGE_GAP
    _, want, want_report = _iterative_solve(monkeypatch, spec, n, s0)
    assert abs(value - want) <= 1e-12
    assert abs(report.upper_bits - want_report.upper_bits) <= 1e-12


def test_stages_below_the_det_guard_iterate(monkeypatch):
    # |det W_s| = 1e-10 <= SINGULAR_DET: no closed form, the stages iterate as before
    spec = PostAlpha(1.0 - 1e-10)
    assert all(optimize._class_inverse(w) is None for w in spec.class_matrices.values())
    (_, value, report), steps = _counted_solve(monkeypatch, spec, 4, 0)
    assert steps > 0
    assert report.passed
    assert value == _iterative_solve(monkeypatch, spec, 4, 0)[1]


def test_warm_started_stages_match_cold_start_oracle(monkeypatch):
    # the oracle starts every stage from the uniform law: Blahut-Arimoto, then
    # Newton; the solver starts square invertible stages from their closed form,
    # and a stage it reuses (_repeats) is recorded as a warm one with the values
    # of the stage solved last, the values it reuses
    cold, repeats, calls = optimize._stage_law, optimize._repeats, []

    def recording(mat, bonus, max_iterations, start=None, inverse=None):
        law, value, d = cold(mat, bonus, max_iterations, start, inverse)
        calls.append((start is not None, value))
        return law, value, d

    def recording_reuse(lower, solved_at, solved):
        reused = repeats(lower, solved_at, solved)
        if reused:
            calls.extend((True, value) for _, value in calls[-len(solved) :])
        return reused

    monkeypatch.setattr(optimize, "_stage_law", recording)
    monkeypatch.setattr(optimize, "_repeats", recording_reuse)
    rng = np.random.default_rng(2)
    cases = [(_random_custom(rng), 6, 0) for _ in range(300)]
    cases += [(MaryPost(4), 3, s0) for s0 in range(5)] + STAGE_EDGE_CASES
    for spec, n, s0 in cases:
        calls.clear()
        _, value, report = maximize_di_feedback(spec, n, s0, TIGHT)
        want_stages, want_value = _cold_start_solve(cold, spec, n, s0, TIGHT)
        warm, stages = zip(*calls)
        first = len(spec.class_matrices)
        assert not any(warm[:first]) and all(warm[first:])
        assert np.abs(np.array(stages) - want_stages).max() / math.log(2.0) <= 1e-12
        assert abs(value - want_value) <= 1e-12


def _two_class_values(m, n):
    """Exact n-use feedback values of MaryPost(m) from states 0 and m (bits), by the two-class recursion.

    V = 0 at the start and d = V(m) - V(0).  From state m an input below m
    gives m and input m gives 0, noiselessly: V(m) <- V(0) + log2(1 + 2^d).
    Below m the best stage is V(0) + log2(2^d + m/4) when 2^d >= m/4, else
    V(0) + 1 + (d + log2 m - 2)/2.  The recursion runs on V(0) and d, since
    2^V overflows at m = 16, n = 1000.
    """
    base, d = 0.0, 0.0
    for _ in range(n):
        top = math.log2(1.0 + 2.0**d)
        if 2.0**d >= m / 4.0:
            below = math.log2(2.0**d + m / 4.0)
        else:
            below = 1.0 + (d + math.log2(m) - 2.0) / 2.0
        base, d = base + below, top - below
    return {0: base, m: base + d}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 16])
def test_feedback_stages_equal_the_two_class_recursion(m):
    for n in (1, 2, 3, 10, 100, 1000):
        want = _two_class_values(m, n)
        for s0 in (0, m):
            _, value, report = optimize._feedback_stages(MaryPost(m), n, s0, TIGHT)
            assert report.passed
            assert abs(value - want[s0]) / n <= 1e-12, (n, s0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 16, 1023])
def test_closed_form_horizon_values_equal_the_two_class_recursion(m):
    # the closed form steps the Bellman operator at its maximizers, this
    # test's recursion at its log-sum values
    for n in (1, 2, 3, 10, 1000):
        want = _two_class_values(m, n)
        below, top = mary_horizon_values(m, n)
        assert abs(below - want[0]) / n <= 1e-12, n
        assert abs(top - want[m]) / n <= 1e-12, n


def test_long_horizon_stages_certify_at_their_closed_form(monkeypatch):
    # relative stage values keep every stationary start within STAGE_GAP:
    # with absolute values near 1e4 nats, this solve took 295k Newton steps
    steps, ba, newton = [], optimize._ba_step, optimize._newton_step
    monkeypatch.setattr(optimize, "_ba_step", lambda *args: steps.append(1) or ba(*args))
    monkeypatch.setattr(optimize, "_newton_step", lambda *args: steps.append(1) or newton(*args))
    laws, value, report = optimize._feedback_stages(PostAlpha(0.3), 40000, 0, TIGHT)
    assert steps == []
    assert report.passed
    assert laws.shape == (40000, 2, 2)
    assert value / 40000 == approx(post_alpha_capacity(0.3).capacity_bits, abs=1e-12)


@pytest.mark.parametrize(
    "spec, reuses",
    [
        (PostAlpha(0.3), True),
        # its relative values flicker in their last bit
        (PostAB(0.9, 0.7), False),
        (MaryPost(1), True),
        (MaryPost(4), True),
        (TWO_INPUT_CUSTOM, False),
    ],
)
def test_stages_whose_values_repeat_reuse_their_solves_bit_for_bit(spec, reuses, monkeypatch):
    # relative values that repeat bit for bit reuse the last stage's certified
    # solves: the laws, value and report are those of solving every stage
    n, calls, stage_law = 2000, [], optimize._stage_law
    monkeypatch.setattr(optimize, "_stage_law", lambda *args: calls.append(1) or stage_law(*args))
    laws, value, report = optimize._feedback_stages(spec, n, 0, TIGHT)
    reused = len(spec.class_matrices) * n - len(calls)
    monkeypatch.setattr(optimize, "_repeats", lambda *args: False)
    want_laws, want_value, want_report = optimize._feedback_stages(spec, n, 0, TIGHT)
    if reuses:
        assert reused > 0
    assert np.array_equal(laws, want_laws)
    assert value == want_value
    assert report == want_report


def test_feedback_stages_size_guard_admits_exactly_the_cap(monkeypatch):
    # n |Y| |X| stage-law entries: 2^18 binary stages hold DENSE_ENTRY_CAP
    def first_stage(*args, **kwargs):
        raise LookupError("the first stage ran")

    monkeypatch.setattr(optimize, "_stage_law", first_stage)
    assert 2**18 * 2 * 2 == DENSE_ENTRY_CAP
    with pytest.raises(LookupError):
        optimize._feedback_stages(PostAlpha(0.5), 2**18, 0, TIGHT)
    with pytest.raises(ValueError, match="feedback stage laws would hold"):
        optimize._feedback_stages(PostAlpha(0.5), 2**18 + 1, 0, TIGHT)


def test_upper_bound_tracks_value():
    _, value, report = maximize_di_feedback(PostAlpha(0.3), 3, 0, TIGHT)
    assert report.upper_bits - value <= 10 * TIGHT.kkt_tolerance


# -- certificate ----------------------------------------------------------------


def test_certificate_stationary_policy_passes():
    spec = PostAlpha(0.5)
    for n in (1, 2, 3):
        kin = feedback_policy(spec, n, 0)
        report = kkt_check(kin, spec, n, 0, 1e-9)
        assert report.passed
        assert report.implied_capacity == approx(n * 0.321928, abs=1e-5)
        assert len(report.beta) == 2 ** (n - 1)


def test_certificate_single_step_uniform_bsc():
    kin = open_loop_kernel(SequencePmf(2, 1, np.array([0.5, 0.5])), 2)
    report = kkt_check(kin, PostAB(0.9, 0.9), 1, 0, 1e-9)
    assert report.passed
    assert report.implied_capacity == approx(0.531004, abs=1e-6)


def test_certificate_rejects_suboptimal_input():
    kin = open_loop_kernel(SequencePmf(2, 1, np.array([0.9, 0.1])), 2)
    report = kkt_check(kin, PostAB(0.9, 0.9), 1, 0, 1e-6)
    assert not report.passed
    assert report.max_violation_support > 1e-2


def test_certificate_fails_where_an_unused_input_reaches_an_unseen_output():
    # always sending 0 from state 0 of the Z/S channel never yields output 1,
    # which input 1 reaches: its inner term, and with it the gap, is infinite
    spec = PostAlpha(0.5)
    for n in (1, 2):
        kin = open_loop_kernel(SequencePmf(2, n, np.eye(2**n)[0]), 2)
        report = kkt_check(kin, spec, n, 0, 1e-7)
        assert not report.passed
        assert report.max_violation_offsupport == math.inf
        assert report.polyhedron_gap == math.inf
        assert report.max_violation_support < math.inf


def test_certificate_beta_sum_identity_small_n():
    # the implied value reproduces the objective at any kernel, optimal or not
    spec = PostAlpha(0.45)
    rng = np.random.default_rng(23)

    for n in (1, 2, 3):
        chan = build_sequence_kernel(spec, n, 0).kernel
        for _ in range(5):
            kin = compose_causal(random_policy(2, 2, n, 1, rng))
            report = kkt_check(kin, spec, n, 0, 1e-9)
            di = directed_information(kin, chan)
            assert report.implied_capacity == approx(di, abs=1e-9)


# -- open-loop solver --------------------------------------------------------------


def test_open_loop_bsc_uniform():
    pmf, value, _ = maximize_mi_nofeedback(PostAB(0.9, 0.9), 1, 0, TIGHT)
    assert value == approx(0.531004, abs=1e-6)
    assert pmf.values == approx([0.5, 0.5], abs=1e-4)


def test_open_loop_equals_feedback_for_binary_families():
    # the two optimal values coincide at every horizon for these families
    for spec in (PostAlpha(0.5), PostAB(0.9, 0.7)):
        _, fb_value, _ = maximize_di_feedback(spec, 2, 0, TIGHT)
        _, ol_value, _ = maximize_mi_nofeedback(spec, 2, 0, TIGHT)
        assert ol_value == approx(fb_value, abs=1e-6)
        assert fb_value >= ol_value - 1e-9


def _reference_open_loop(spec, n, s0, cfg, mu_max=optimize.MU_MAX, retakes=None):
    """Dense twin of the open-loop solver: same step schedule, rejection and pass count.

    Runs on the dense sequence kernel; mu_max = 1 makes it plain Blahut-Arimoto.
    It shares the solver's update: an accepted step with mu = 64 multiplies a
    rounding difference in the update by up to 64, so an update rounded
    otherwise drifts by far more than 1e-12.  retakes[k], if given, says
    whether the solver's k-th update retook a rejected step.  Where the twin
    decides otherwise, the two objectives must tie to within 1e-12 nats, a
    decision the rounding of the two passes may flip, and the twin follows the
    solver.  Returns the last kept pmf, its value in bits and whether it
    certified.
    """
    chan = build_sequence_kernel(spec, n, s0).kernel.values
    const = (chan * np.log(chan, where=chan > 0, out=np.zeros_like(chan))).sum(axis=0)

    p = np.full(chan.shape[1], 1.0 / chan.shape[1])
    mu, over, prev, certified, updates = 1.0, False, -math.inf, False, 0
    for _ in range(cfg.max_iterations):
        q = chan @ p
        divergences = const - chan.T @ np.log(q, where=q > 0, out=np.zeros_like(q))
        value = float(p @ divergences)
        reject = over and value < prev
        if retakes is not None:
            # the solver stops after its last update's pass: it kept that iterate
            solver = updates < len(retakes) and retakes[updates]
            if solver != reject:
                assert abs(value - prev) <= 1e-12
                reject = solver
        if reject:
            p, mu, over = optimize._ba_step(kept, kept_divergences), 1.0, False
            updates += 1
            continue
        kept, kept_divergences, prev = p, divergences, value
        if divergences.max() - value <= cfg.kkt_tolerance:
            certified = True
            break
        p, over = optimize._ba_step(p, mu * divergences), mu > 1.0
        mu, updates = min(2.0 * mu, mu_max), updates + 1
    return kept, prev / math.log(2.0), certified


def _recorded_solve(monkeypatch, spec, n, s0, cfg):
    """The solver's pmf and value, and per update whether it retook a rejected step."""
    inputs = []
    step = optimize._ba_step
    monkeypatch.setattr(optimize, "_ba_step", lambda p, d: inputs.append(p) or step(p, d))
    pmf, value, _ = maximize_mi_nofeedback(spec, n, s0, cfg)
    monkeypatch.undo()
    # a retake starts again from the iterate the update before it started from
    return pmf, value, [k > 0 and p is inputs[k - 1] for k, p in enumerate(inputs)]


@pytest.mark.parametrize("spec", PASS_SPECS)
def test_open_loop_solver_matches_reference_ba(spec, monkeypatch):
    cfg = OptimizerConfig(max_iterations=3000, kkt_tolerance=1e-8)
    for n in (1, 2, 3, 4):
        for s0 in range(len(spec.state_classes)):
            pmf, value, retakes = _recorded_solve(monkeypatch, spec, n, s0, cfg)
            want_p, want_value, _ = _reference_open_loop(spec, n, s0, cfg, retakes=retakes)
            assert abs(value - want_value) < 1e-12
            assert np.abs(pmf.values - want_p).max() < 1e-12


@pytest.mark.parametrize(
    "spec, horizons",
    [*((spec, (1, 2, 3, 4)) for spec in PASS_SPECS), (MaryPost(1), (6,)), (MaryPost(2), (6,))],
)
def test_open_loop_solver_value_matches_plain_ba(spec, horizons):
    # both stop certified, so both values lie within kkt_tolerance nats of the optimum
    cfg = OptimizerConfig(max_iterations=50000, kkt_tolerance=1e-8)
    for n in horizons:
        for s0 in range(len(spec.state_classes)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, value, residual = maximize_mi_nofeedback(spec, n, s0, cfg)
            assert residual <= cfg.kkt_tolerance
            _, want, certified = _reference_open_loop(spec, n, s0, cfg, mu_max=1.0)
            assert certified
            assert abs(value - want) <= cfg.kkt_tolerance / math.log(2.0)


def test_lumped_solver_pass_count(monkeypatch):
    # the race makes 8 passes from s0 = 0 and 872 from s0 = 4, the winner
    calls = []
    divergences = channels._LumpedChannel.divergences
    monkeypatch.setattr(
        channels._LumpedChannel, "divergences", lambda self, law: calls.append(1) or divergences(self, law)
    )
    upper_bound(MaryPost(4), 6, OptimizerConfig(max_iterations=50000, kkt_tolerance=1e-7))
    assert len(calls) <= 900


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_ba_step_keeps_zeros_and_matches_the_log_domain_update(data):
    size = data.draw(st.integers(1, 16))
    p = data.draw(arrays(np.float64, size, elements=st.just(0.0) | st.floats(1e-3, 1.0)))
    assume(p.any())
    d = data.draw(arrays(np.float64, size, elements=st.floats(0.0, 10.0)))
    mu = data.draw(st.integers(1, 64))
    out = optimize._ba_step(p, mu * d)
    assert (out[p == 0] == 0.0).all()
    assert (out[p > 0] > 0.0).all()
    assert abs(math.fsum(out) - 1.0) <= 1e-15
    # the log-domain update p exp(mu d) / Z rounds its exponent, log p + mu d - ln Z,
    # to a few ulp of its terms' size, which exp turns into a relative error;
    # both normalizing sums add up to size ulp
    live = p > 0
    exponent = np.log(p[live]) + mu * d[live]
    want = np.exp(exponent - optimize.logsumexp(exponent))
    scale = size + np.abs(np.log(p[live])) + 2.0 * mu * d.max()
    assert (np.abs(out[live] - want) <= 4.0 * np.finfo(float).eps * scale * want).all()


def test_open_loop_solver_iteration_count(monkeypatch):
    # plain Blahut-Arimoto makes 5,668 updates here; the race makes 554,
    # almost all of them the winning state's
    calls = []
    step = optimize._ba_step
    monkeypatch.setattr(optimize, "_ba_step", lambda p, d: calls.append(1) or step(p, d))
    upper_bound(MaryPost(2), 6, OptimizerConfig(max_iterations=50000, kkt_tolerance=1e-7))
    assert len(calls) <= 600


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_open_loop_solver_is_monotone_and_certifies_where_plain_ba_does(data):
    # small random channels, zeros allowed; the first row keeps every column's sum positive
    y, x = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
    raw = data.draw(arrays(np.float64, (y, y, x), elements=st.floats(0.0, 1.0)))
    raw[:, 0, :] += 1e-3
    spec = CustomPost(tuple(raw / raw.sum(axis=1, keepdims=True)))
    n, s0 = data.draw(st.integers(1, 3)), data.draw(st.integers(0, y - 1))
    cfg = OptimizerConfig(max_iterations=20000, kkt_tolerance=1e-7)
    # a lowered objective raises RuntimeError, any warning fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, residual = maximize_mi_nofeedback(spec, n, s0, cfg)
    if residual > cfg.kkt_tolerance:
        # ill-conditioned channels outrun the budget; plain Blahut-Arimoto must too
        assert not _reference_open_loop(spec, n, s0, cfg, mu_max=1.0)[2]


def _kept_iterates(spec, n, cfg):
    """(value, largest divergence) in nats of every kept iterate, per start state solved alone."""
    return [
        [(value, top) for _, value, top in optimize._open_loop_iterates(spec, n, s0, cfg, bool(spec.free_labels))]
        for s0 in channels.initial_states(spec)
    ]


def test_budget_stop_is_a_returned_residual_not_a_warning():
    cfg = OptimizerConfig(max_iterations=5, kkt_tolerance=1e-7)
    spec = MaryPost(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solves = [maximize_mi_nofeedback(spec, 6, s0, cfg) for s0 in channels.initial_states(spec)]
        value, width = upper_bound(spec, 6, cfg)
        # its stage matrices are not square, so every stage iterates
        _, _, report = maximize_di_feedback(TWO_INPUT_CUSTOM, 3, 0, cfg)
    assert min(residual for _, _, residual in solves) > cfg.kkt_tolerance
    # the width is the largest last divergence over states minus the best
    # last value; the losing state, dropped after 2 of its 4 kept iterates,
    # has its largest divergence below the best value at the drop and after
    lasts = [iterates[-1] for iterates in _kept_iterates(spec, 6, cfg)]
    best = max(v for v, _ in lasts)
    assert value == best / LN2 / 6
    assert width == max(top for _, top in lasts) - best
    assert width > cfg.kkt_tolerance
    assert not report.passed


@pytest.mark.parametrize(
    "spec, n", [(MaryPost(1), 6), (MaryPost(2), 6), (MaryPost(4), 6), (PostAB(0.9, 0.7), 4)]
)
def test_upper_bound_race_keeps_the_best_solve_bit_for_bit(spec, n):
    # the race drops losing states early, but its value is the best state's
    # solve run alone to the end, to the last bit
    cfg = OptimizerConfig(max_iterations=50000, kkt_tolerance=1e-7)
    value, width = upper_bound(spec, n, cfg)
    best = max(iterates[-1][0] for iterates in _kept_iterates(spec, n, cfg))
    assert value == best / LN2 / n
    assert 0.0 <= width <= cfg.kkt_tolerance


def test_open_loop_solver_size_guard_raises_before_allocating():
    requests = [
        # the lumped channel of MaryPost(16) at n = 9 would hold 6.7e6 nonzeros
        lambda: upper_bound(MaryPost(16), 9),
        # the orbit count stops at the first level above the cap
        lambda: upper_bound(MaryPost(1024), 10**9),
        # max(|X|, |Y|)^6 = 17^6 entries: about 190 MB per array of the passes
        lambda: maximize_mi_nofeedback(MaryPost(16), 6, 0),
        # the step tensor alone would hold 1025^3 and 513^3 entries (8.6 and
        # 1.1 GB) although max(|X|, |Y|)^n is under the cap
        lambda: maximize_mi_nofeedback(MaryPost(1024), 1, 0),
        lambda: maximize_mi_nofeedback(MaryPost(512), 2, 0),
    ]
    for request in requests:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="entries"):
                request()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    with pytest.raises(ValueError, match="positive"):
        maximize_mi_nofeedback(MaryPost(1), 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        maximize_mi_nofeedback(MaryPost(1), 3, -1)
    with pytest.raises(ValueError, match="positive"):
        upper_bound(MaryPost(4), 0)
    with pytest.raises(ValueError, match="positive"):
        mutual_information_given_state(PostAlpha(0.5), 0, 0, SequencePmf(2, 0, np.ones(1)))
    with pytest.raises(ValueError, match="out of range"):
        mutual_information_given_state(PostAlpha(0.5), 2, 2, SequencePmf(2, 2, np.full(4, 0.25)))
    with pytest.raises(ValueError, match="positive"):
        build_sequence_kernel(PostAlpha(0.5), 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        build_sequence_kernel(PostAlpha(0.5), 2, -1)


def test_upper_bound_scans_initial_states():
    cfg = OptimizerConfig(max_iterations=50000, kkt_tolerance=1e-8)
    value, residual = upper_bound(MaryPost(1), 6, cfg)
    assert value == approx(0.7918, abs=1e-3)
    assert residual <= cfg.kkt_tolerance


def test_upper_bound_on_orbits_matches_sequence_solves():
    # upper_bound solves MaryPost(m >= 2) on orbits, maximize_mi_nofeedback on sequences
    cfg = OptimizerConfig(max_iterations=50000, kkt_tolerance=1e-9)
    for m in (2, 3, 4):
        for n in (2, 3):
            value, residual = upper_bound(MaryPost(m), n, cfg)
            want = max(maximize_mi_nofeedback(MaryPost(m), n, s0, cfg)[1] for s0 in (0, m))
            assert residual <= cfg.kkt_tolerance
            assert abs(value - want / n) <= cfg.kkt_tolerance / (n * math.log(2.0))


@pytest.mark.parametrize("initialization", ["uniform", "random"])
def test_upper_bound_on_classes_matches_the_orbit_race(initialization, monkeypatch):
    # merging orbits with equal columns keeps each class's mass ratio, so
    # the race on classes follows the race on orbits up to rounding
    cfg = OptimizerConfig(max_iterations=50000, kkt_tolerance=1e-7, initialization=initialization, seed=5)
    cases = [(m, n) for m in (2, 3, 4, 8, 16) for n in range(1, 7)]
    on_classes = [upper_bound(MaryPost(m), n, cfg)[0] for m, n in cases]
    monkeypatch.setattr(optimize, "_merge_equal_columns", lambda orbits: (orbits, np.arange(len(orbits.sizes))))
    on_orbits = [upper_bound(MaryPost(m), n, cfg)[0] for m, n in cases]
    assert np.abs(np.array(on_classes) - on_orbits).max() <= 1e-12


def test_upper_bound_random_start_runs_on_orbits():
    # a random start stays on orbits: MaryPost(16) at n = 5 would need
    # 17^5-entry channel passes, over the size cap
    uniform = OptimizerConfig(max_iterations=50000, kkt_tolerance=1e-9)
    random = OptimizerConfig(max_iterations=50000, kkt_tolerance=1e-9, initialization="random", seed=3)
    with pytest.raises(ValueError, match="channel pass"):
        maximize_mi_nofeedback(MaryPost(16), 5, 0, random)
    for spec, n in ((MaryPost(3), 3), (MaryPost(16), 5)):
        want, _ = upper_bound(spec, n, uniform)
        value, residual = upper_bound(spec, n, random)
        assert residual <= random.kkt_tolerance
        assert abs(value - want) <= 2 * random.kkt_tolerance / (n * math.log(2.0))


def test_upper_bound_size_check_follows_the_solve_path():
    # passes for a spec without free labels, the lumped channel otherwise;
    # one horizon less fits
    for s0 in (0, 1):
        channels._check_pass_size(MaryPost(1), 20, s0)
    for s0 in (0, 16):
        channels._check_lumped_size(MaryPost(16), 7, s0)
    for spec, n, message in (
        (MaryPost(1), 21, "channel pass"),
        (MaryPost(16), 8, "lumped channel's orbit walk"),
        (PostAlpha(0.5), 21, "channel pass"),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                upper_bound(spec, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


@pytest.mark.parametrize(
    "call",
    [lambda: upper_bound(MaryPost(16), 9), lambda: channels._lumped_channel(MaryPost(16), 9, 0)],
    ids=["upper_bound", "lumped_channel"],
)
def test_oversized_lumped_channel_is_refused_when_called_directly(call):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="lumped channel would hold 6729540 entries"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_open_loop_match_frees_its_raw_input_and_target_before_the_mi_pass():
    # the mutual information pass peaks at 32 MiB at n = 20; holding the raw
    # input and the Markov target (8 MiB each) through it peaked at 56.2 MiB
    tracemalloc.start()
    try:
        assert open_loop_match(PostAB(0.9, 0.7), 20, 0).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 42 * 2**20


def test_upper_bound_on_orbits_memory():
    # the matrix-free passes peaked at 1.13 MiB here; building the lumped
    # channel and solving on it stay near that
    tracemalloc.start()
    try:
        upper_bound(MaryPost(4), 6, OptimizerConfig(max_iterations=50000, kkt_tolerance=1e-7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_upper_bound_race_memory():
    # the race holds both start states' solves at once; building the lumped
    # channel of s0 = 0 peaked at 10.4 MiB alone, which this must not exceed
    tracemalloc.start()
    try:
        upper_bound(MaryPost(8), 7, OptimizerConfig(max_iterations=50000, kkt_tolerance=1e-7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.5 * 2**20


def test_upper_bound_dominates_closed_form():
    cfg = OptimizerConfig(max_iterations=50000, kkt_tolerance=1e-8)
    assert upper_bound(PostAlpha(0.5), 4, cfg)[0] >= 0.321928 - 1e-6


# -- open-loop match ------------------------------------------------------------------


def test_open_loop_match_single_step():
    report = open_loop_match(PostAlpha(0.5), 1, 0)
    assert report.passed
    assert report.input_pmf.values == approx([0.6, 0.4], abs=1e-12)


def test_open_loop_match_deep_horizon_both_states():
    # n = 20 is the largest horizon the channel passes accept for a binary channel
    for n in (10, 20):
        for s0 in (0, 1):
            report = open_loop_match(PostAlpha(0.5), n, s0)
            assert report.passed
            assert report.di_gap <= 1e-8
            assert report.min_entry >= -1e-10
            assert abs(report.total - 1.0) <= 1e-9
            assert report.output_gap <= 1e-10


@pytest.mark.parametrize("a, b", [(0.55, 0.5), (0.56, 0.52), (0.6, 0.5)])
@pytest.mark.parametrize("s0", [0, 1])
def test_open_loop_match_slow_strip_at_n10(a, b, s0):
    # a + b - 1 <= 0.1: the dense block inverse missed the mass tolerance here
    report = open_loop_match(PostAB(a, b), 10, s0)
    assert report.passed
    assert report.output_gap <= 1e-10


def test_open_loop_match_builds_no_block_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("open_loop_match built a dense sequence-level matrix")

    monkeypatch.setattr(channels, "_block_matrix", refuse)
    for spec in (PostAlpha(0.3), PostAB(0.9, 0.7)):
        for s0 in (0, 1):
            assert open_loop_match(spec, 10, s0).passed


def test_open_loop_match_ab_family():
    report = open_loop_match(PostAB(0.9, 0.7), 8, 0)
    assert report.passed
    want = recursive_input_ab(0.9, 0.7, 8, 0).values
    assert np.abs(report.input_pmf.values - want).max() < 1e-10


def test_open_loop_match_rejects_degenerate():
    with pytest.raises(SingularChannelError):
        open_loop_match(PostAB(0.3, 0.7), 4, 0)


def test_open_loop_match_size_guard_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="entries"):
            open_loop_match(PostAlpha(0.5), 21, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_open_loop_match_memory_and_inverse_route():
    spec, n, s0 = PostAB(0.9, 0.7), 10, 0
    tracemalloc.start()
    try:
        report = open_loop_match(spec, n, s0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few 2^n vectors; no 2^n x 2^n matrix
    assert peak < 2**20
    for levels in _input_levels(spec, n):
        pass
    assert report.min_entry == float(levels[s0].min())
    assert report.total == float(levels[s0].sum())
    # a reference outside the recursion: LU on the dense kernel
    n = 8
    report = open_loop_match(spec, n, s0)
    delta = closed_form_solution(spec, markov=True).output_markov_transition
    chan = build_sequence_kernel(spec, n, s0).kernel.values
    solved = np.linalg.solve(chan, output_markov_pmf(delta, n, s0).values)
    assert np.abs(report.input_pmf.values - solved).max() < 1e-10


def test_match_agrees_with_recursion_route():
    report = open_loop_match(PostAlpha(0.3), 6, 1)
    want = recursive_input_alpha(0.3, 6, 1).values
    assert np.abs(report.input_pmf.values - want).max() < 1e-10


def test_logsumexp_matches_direct_sum():
    a = np.random.default_rng(5).normal(size=(4, 3, 5))
    assert abs(optimize.logsumexp(a) - np.log(np.exp(a).sum())) <= 1e-12
    assert np.abs(optimize.logsumexp(a, axis=1) - np.log(np.exp(a).sum(axis=1))).max() <= 1e-12


def test_logsumexp_extreme_entries():
    a = np.array([[1000.0, 1000.0, -1000.0], [-1000.0, -1000.0, 0.0], [-1e3] * 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = optimize.logsumexp(a, axis=1)
        total = optimize.logsumexp(a)
    want = [1000.0 + math.log(2.0), math.log1p(2.0 * math.exp(-1000.0)), -1e3 + math.log(3.0)]
    assert np.isfinite(out).all()
    assert out == approx(want, rel=1e-15)
    assert total == approx(1000.0 + math.log(2.0), rel=1e-15)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=0)
    with pytest.raises(ValueError):
        OptimizerConfig(kkt_tolerance=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(kkt_tolerance=math.nan)
    with pytest.raises(ValueError):
        OptimizerConfig(initialization="warm")


def test_kkt_check_rejects_mismatched_kernel():
    kin = open_loop_kernel(SequencePmf(2, 1, np.array([0.5, 0.5])), 2)
    with pytest.raises(ValueError):
        kkt_check(kin, PostAlpha(0.5), 2, 0, 1e-6)
