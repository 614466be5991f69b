import itertools

import numpy as np
import pytest
from pytest import approx

from postcap import (
    CausalKernel,
    SequencePmf,
    StepPolicy,
    binary_entropy,
    compose_causal,
    entropy,
    random_policy,
    sequence_index,
)
from postcap.channels import PostAlpha, build_sequence_kernel, step_kernel
from postcap.probability import _joint

from dense_reference import factorize_causal, feedback_policy, open_loop_kernel, output_state_policy, validate_causal


# -- indexing ---------------------------------------------------------------


def test_index_convention_first_symbol_most_significant():
    assert sequence_index((1, 0), 2) == 2
    assert sequence_index((0, 1), 2) == 1
    assert sequence_index((1, 2, 0), 3) == 15
    # itertools.product runs through sequences in the same order
    for idx, seq in enumerate(itertools.product(range(3), repeat=3)):
        assert sequence_index(seq, 3) == idx


# -- entropies ---------------------------------------------------------------


def test_binary_entropy_values():
    assert binary_entropy(0.5) == approx(1.0)
    assert binary_entropy(0.25) == approx(0.8112781244591328, abs=1e-12)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_iid_state_channel_constant():
    value = binary_entropy(0.25) - 0.5
    assert value == approx(0.3112781244591328, abs=1e-12)
    # published rounding of the same constant
    assert value == approx(0.3111, abs=2e-4)


def test_entropy_and_kl():
    assert entropy(np.array([0.5, 0.5])) == approx(1.0)
    assert entropy(np.array([1.0, 0.0])) == 0.0


# -- SequencePmf -------------------------------------------------------------


def test_sequence_pmf_validation():
    with pytest.raises(ValueError):
        SequencePmf(2, 1, np.array([0.7, 0.4]))
    with pytest.raises(ValueError):
        SequencePmf(2, 1, np.array([1.1, -0.1]))
    assert SequencePmf(2, 2, np.array([0.25, 0.25, 0.25, 0.25])).n == 2


def test_sequence_pmf_clamps_rounding_noise():
    pmf = SequencePmf(2, 1, np.array([1.0 + 5e-13, -5e-13]))
    assert pmf.values[1] == 0.0


def _read_only(a):
    a.setflags(write=False)
    return a


def test_sequence_pmf_adopts_only_read_only_owning_nonnegative_arrays():
    adopted = _read_only(np.array([0.125, 0.125, 0.0, 0.75]))
    assert SequencePmf(2, 2, adopted).values is adopted

    writeable = np.array([0.25, 0.25, 0.25, 0.25])
    base = np.array([0.25, 0.25, 0.25, 0.25])
    view = _read_only(base[:])
    negative = _read_only(np.array([0.5 + 1e-13, 0.25, 0.25, -1e-13]))
    signed_zero = _read_only(np.array([0.5, 0.25, 0.25, -0.0]))
    for arr, source in ((writeable, writeable), (view, base), (negative, negative), (signed_zero, signed_zero)):
        pmf = SequencePmf(2, 2, arr)
        assert pmf.values is not arr and pmf.values.base is None and not pmf.values.flags.writeable
        # the copy is clamped: no entry below zero, no -0.0
        assert not np.signbit(pmf.values).any()
        before = pmf.values.copy()
        source.setflags(write=True)
        source[0] = 0.75
        assert np.array_equal(pmf.values, before)
    # the checks run on adopted arrays too
    with pytest.raises(ValueError, match="sum to"):
        SequencePmf(2, 1, _read_only(np.array([0.5, 0.6])))
    with pytest.raises(ValueError, match="expected 4 entries"):
        SequencePmf(2, 2, _read_only(np.array([0.5, 0.5])))
    with pytest.raises(ValueError, match="negative probability"):
        SequencePmf(2, 1, _read_only(np.array([1.5, -0.5])))


def test_marginals():
    values = np.array([0.4, 0.1, 0.2, 0.3])
    pmf = SequencePmf(2, 2, values)
    assert pmf.prefix_marginal(1).values == approx([0.5, 0.5])
    assert pmf.entry((1, 0)) == approx(0.2)


def _marginal_orders(n):
    ascending = list(range(n + 1))
    return [ascending, ascending[::-1], [max(n - 7, 0), *ascending]]


@pytest.mark.parametrize("k, n", [(2, 11), (2, 20), (3, 7), (4, 5), (4, 10), (5, 4)])
def test_prefix_marginal_bits_equal_reshape_sum(k, n):
    # power-of-two tails of 128 entries or more come from the cached block
    # sums, tails of 8 from halving the entries, tails shorter than 8 are
    # added column by column, the rest by sum; all must keep numpy's bits,
    # whichever marginal comes first.  Zeros and subnormals are included.
    rng = np.random.default_rng(k)
    values = rng.dirichlet(np.ones(k**n))
    values[::11] = 0.0
    values[3::13] = 5e-324
    values /= values.sum()
    assert (values == 5e-324).any()
    for order in _marginal_orders(n):
        pmf = SequencePmf(k, n, values)
        for i in order:
            want = pmf.values.reshape(k**i, -1).sum(axis=1)
            assert pmf.prefix_marginal(i).values.tobytes() == want.tobytes(), (order, i)


def test_block_sum_cache_is_small_read_only_and_outside_the_fields():
    values = _read_only(np.random.default_rng(3).dirichlet(np.ones(2**12)))
    pmf, other = SequencePmf(2, 12, values), SequencePmf(2, 12, values)
    assert "_block_sums" not in vars(pmf)
    pmf.prefix_marginal(2)
    cache = vars(pmf)["_block_sums"]
    assert not cache.flags.writeable and cache.size <= values.size // 128
    with pytest.raises(ValueError):
        cache[0] = 0.0
    # the cache is no field: equality and repr see the same pmf
    assert "_block_sums" not in vars(other)
    assert pmf == other and repr(pmf) == repr(other)
    assert "_block_sums" not in repr(pmf)


# -- compose / validate / factorize ------------------------------------------


def test_compose_single_factor():
    policy = StepPolicy(2, 2, 1, 1, (np.array([[[0.4, 0.6]]]),))
    kernel = compose_causal(policy)
    assert kernel.values == approx(np.array([[0.4], [0.6]]))


def test_compose_stationary_policy_n2():
    law = np.array([[0.6, 0.4], [0.4, 0.6]])  # the capacity-achieving law of PostAlpha(0.5)
    kernel = compose_causal(output_state_policy([law, law], 0))
    assert kernel.values == approx(feedback_policy(PostAlpha(0.5), 2, 0).values, abs=1e-15)
    assert kernel.values.shape == (4, 2)
    # one unit of probability per conditioning context
    assert kernel.values.sum(axis=0) == approx([1.0, 1.0])
    assert kernel.values.sum() == approx(2.0)
    assert validate_causal(kernel).passed
    # the first factor is shared by both contexts
    assert kernel.values[:2, 0].sum() == approx(kernel.values[:2, 1].sum())


def test_compose_deterministic_copy_of_feedback():
    # x_1 = 0, then x_i equals the previous output symbol
    step1 = np.zeros((1, 1, 2))
    step1[0, 0, 0] = 1.0
    step2 = np.zeros((2, 2, 2))
    for ctx in range(2):
        step2[:, ctx, ctx] = 1.0
    kernel = compose_causal(StepPolicy(2, 2, 2, 1, (step1, step2)))
    for ctx in range(2):
        col = kernel.values[:, ctx]
        assert col.sum() == approx(1.0)
        assert (col == 1.0).sum() == 1
        assert col[sequence_index((0, ctx), 2)] == 1.0


def test_validate_rejects_perturbation():
    kernel = feedback_policy(PostAlpha(0.5), 2, 0)
    values = kernel.values.copy()
    values[0, 0] += 1e-3
    bad = CausalKernel(2, 2, 2, 1, values)
    report = validate_causal(bad)
    assert not report.passed
    assert any("prefix consistency level 1" in name for name, _ in report.violations)


def test_validate_accepts_channel_kernels():
    kernel = build_sequence_kernel(PostAlpha(0.3), 3, 0).kernel
    assert validate_causal(kernel).passed
    assert kernel.values.sum(axis=0) == approx(np.ones(8))


@pytest.mark.parametrize("delay", [0, 1])
@pytest.mark.parametrize("alphabets", [(2, 2), (2, 3), (3, 2)])
def test_random_policies_compose_and_round_trip(delay, alphabets):
    a, b = alphabets
    rng = np.random.default_rng(7 * delay + a + b)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        policy = random_policy(a, b, n, delay, rng)
        kernel = compose_causal(policy)
        assert validate_causal(kernel).passed
        back = compose_causal(factorize_causal(kernel))
        assert np.abs(back.values - kernel.values).max() < 1e-10


def test_factorize_channel_kernel_matches_step_matrices():
    spec = PostAlpha(0.3)
    kernel = build_sequence_kernel(spec, 2, 0).kernel
    policy = factorize_causal(kernel)
    # level 1: p(y_1 | x_1) from the initial state
    assert policy.steps[0][0].T == approx(step_kernel(spec, 0))
    # level 2: p(y_2 | y_1, x^2) equals the state-y1 matrix, whatever x_1 was
    for y1 in range(2):
        for x1 in range(2):
            for x2 in range(2):
                got = policy.steps[1][y1, x1 * 2 + x2]
                want = step_kernel(spec, y1)[:, x2]
                if step_kernel(spec, 0)[y1, x1] > 0:
                    assert got == approx(want)


def test_factorize_dead_branch_is_uniform():
    # x_1 deterministic: the x_1 = 1 branch never occurs
    step1 = np.array([[[1.0, 0.0]]])
    step2 = np.full((2, 2, 2), 0.5)
    step2[0, 0] = [0.3, 0.7]
    step2[0, 1] = [0.9, 0.1]
    kernel = compose_causal(StepPolicy(2, 2, 2, 1, (step1, step2)))
    policy = factorize_causal(kernel)
    assert policy.steps[1][1] == approx(np.full((2, 2), 0.5))
    assert policy.steps[1][0, 0] == approx([0.3, 0.7])
    back = compose_causal(policy)
    assert np.abs(back.values - kernel.values).max() < 1e-12


def test_compose_rejects_level_mismatch():
    with pytest.raises(ValueError):
        StepPolicy(2, 2, 2, 1, (np.array([[[0.4, 0.6]]]), np.full((2, 1, 2), 0.5)))


def test_step_first_axis_is_the_a_prefix_or_1():
    # step 2 of a ternary delay-1 policy: first axis 3 (a^1) or 1 (no dependence on a_1)
    first = np.full((1, 1, 3), 1.0 / 3.0)
    for rows in (1, 3):
        StepPolicy(3, 2, 2, 1, (first, np.full((rows, 2, 3), 1.0 / 3.0)))
    for rows in (0, 2, 4, 9):
        with pytest.raises(ValueError, match=r"expected \(3, 2, 3\) or \(1, 2, 3\)"):
            StepPolicy(3, 2, 2, 1, (first, np.full((rows, 2, 3), 1.0 / 3.0)))


def test_compose_delay0_steps_with_first_axis_1_is_the_memoryless_channel():
    # p(y_i | x_i) alone: the composed channel is the Kronecker power of the
    # one-step matrix, multiplied in the same order, and the steps broadcast
    # to a full first axis compose to the same bits
    rng = np.random.default_rng(11)
    w = rng.dirichlet(np.ones(3), size=2).T  # rows y, columns x
    n = 4
    steps = tuple(np.tile(w.T, (2 ** (i - 1), 1))[None] for i in range(1, n + 1))
    kernel = compose_causal(StepPolicy(3, 2, n, 0, steps))
    want = w
    for _ in range(n - 1):
        want = np.kron(want, w)
    assert np.array_equal(kernel.values, want)
    full = tuple(np.broadcast_to(step, (3**i, *step.shape[1:])) for i, step in enumerate(steps))
    assert np.array_equal(compose_causal(StepPolicy(3, 2, n, 0, full)).values, kernel.values)


# -- chain join: the joint law _joint pairs an input kernel with a channel ------


def _brute_force_joint(alpha, policy_by_state, n, s0):
    """Explicit path-sum oracle for the Z/S family under a per-state policy."""

    def chan(state, x, y):
        mat = step_kernel(PostAlpha(alpha), state)
        return mat[y, x]

    joint = {}
    for xs in itertools.product(range(2), repeat=n):
        for ys in itertools.product(range(2), repeat=n):
            p = 1.0
            state = s0
            for i in range(n):
                p *= policy_by_state[state][xs[i]] * chan(state, xs[i], ys[i])
                state = ys[i]
            joint[xs + ys] = p
    return joint


def test_chain_join_single_step():
    kin = open_loop_kernel(SequencePmf(2, 1, np.array([0.6, 0.4])), 2)
    chan = build_sequence_kernel(PostAlpha(0.5), 1, 0).kernel
    joint = _joint(kin, chan)  # indexed [y^n, x^n]
    # pairs ordered (x=0,y=0), (0,1), (1,0), (1,1)
    assert joint.T.reshape(-1) == approx([0.6, 0.0, 0.2, 0.2])


def test_chain_join_matches_brute_force():
    kin = feedback_policy(PostAlpha(0.5), 2, 0)
    chan = build_sequence_kernel(PostAlpha(0.5), 2, 0).kernel
    joint = _joint(kin, chan)
    oracle = _brute_force_joint(0.5, {0: (0.6, 0.4), 1: (0.4, 0.6)}, 2, 0)
    for (x1, x2, y1, y2), want in oracle.items():
        got = joint[sequence_index((y1, y2), 2), sequence_index((x1, x2), 2)]
        assert got == approx(want, abs=1e-14)
    # y-marginal equals the induced output law (a Markov chain with step 0.2)
    assert joint.sum(axis=1) == approx([0.64, 0.16, 0.04, 0.16])


def test_chain_join_point_mass_through_deterministic_channel():
    kin = open_loop_kernel(SequencePmf(2, 1, np.array([0.0, 1.0])), 2)
    chan = build_sequence_kernel(PostAlpha(0.0), 1, 0).kernel
    assert _joint(kin, chan).T.reshape(-1) == approx([0.0, 0.0, 0.0, 1.0])


def test_chain_join_rejects_length_mismatch():
    kin = open_loop_kernel(SequencePmf(2, 1, np.array([0.5, 0.5])), 2)
    chan = build_sequence_kernel(PostAlpha(0.5), 2, 0).kernel
    with pytest.raises(ValueError):
        _joint(kin, chan)


def test_factorize_rejects_invalid_kernel():
    kernel = feedback_policy(PostAlpha(0.5), 2, 0)
    values = kernel.values.copy()
    values[0, 0] += 1e-3
    with pytest.raises(ValueError):
        factorize_causal(CausalKernel(2, 2, 2, 1, values))
