import itertools
import math

import numpy as np
import pytest
from pytest import approx

from postcap import (
    CustomPost,
    MaryPost,
    OptimizerConfig,
    PostAB,
    PostAlpha,
    SequencePmf,
    build_sequence_kernel,
    compose_causal,
    concavity_probe,
    directed_information,
    maximize_di_feedback,
    mutual_information_given_state,
    random_policy,
    step_kernel,
)
from postcap.probability import _joint

from dense_reference import directed_information_stepwise, feedback_policy, open_loop_kernel

NOISELESS = PostAB(1.0, 1.0)


def _brute_force_di(spec, n, s0, kin):
    """Path-sum oracle: enumerate all (x^n, y^n) pairs explicitly."""
    k = 2
    joint = {}
    py = {}
    chans = {}
    for xs in itertools.product(range(k), repeat=n):
        for ys in itertools.product(range(k), repeat=n):
            state = s0
            pch = 1.0
            for i in range(n):
                pch *= step_kernel(spec, state)[ys[i], xs[i]]
                state = ys[i]
            x_idx = sum(x * k ** (n - 1 - i) for i, x in enumerate(xs))
            ctx = sum(y * k ** (n - 2 - i) for i, y in enumerate(ys[:-1])) if n > 1 else 0
            p = kin[x_idx, ctx] * pch
            joint[(xs, ys)] = (p, pch)
            py[ys] = py.get(ys, 0.0) + p
    total = 0.0
    for (xs, ys), (p, pch) in joint.items():
        if p > 0:
            total += p * math.log2(pch / py[ys])
    return total


def test_noiseless_channel_uniform_input():
    kin = open_loop_kernel(SequencePmf(2, 2, np.full(4, 0.25)), 2)
    chan = build_sequence_kernel(NOISELESS, 2, 0).kernel
    assert directed_information(kin, chan) == approx(2.0)


def test_channel_ignoring_input_gives_zero():
    from postcap import CustomPost

    flat = np.full((2, 2), 0.5)
    spec = CustomPost((flat, flat))
    kin = open_loop_kernel(SequencePmf(2, 2, np.array([0.1, 0.2, 0.3, 0.4])), 2)
    chan = build_sequence_kernel(spec, 2, 0).kernel
    assert directed_information(kin, chan) == approx(0.0, abs=1e-15)


def test_stationary_policy_value_and_brute_force():
    spec = PostAlpha(0.5)
    kin = feedback_policy(spec, 2, 0)
    chan = build_sequence_kernel(spec, 2, 0).kernel
    value = directed_information(kin, chan)
    assert value == approx(0.6438561897747247, abs=1e-12)
    assert value == approx(_brute_force_di(spec, 2, 0, kin.values), abs=1e-12)


def test_stepwise_terms_for_stationary_policy():
    spec = PostAlpha(0.4)
    n = 3
    kin = feedback_policy(spec, n, 0)
    chan = build_sequence_kernel(spec, n, 0).kernel
    terms = directed_information_stepwise(kin, chan)
    from postcap import post_alpha_capacity

    per_step = post_alpha_capacity(0.4).capacity_bits
    assert terms == approx(np.full(n, per_step), abs=1e-12)


def test_stepwise_sums_to_total_on_random_kernels():
    rng = np.random.default_rng(3)
    chan = build_sequence_kernel(PostAB(0.8, 0.6), 4, 1).kernel
    for _ in range(25):
        kin = compose_causal(random_policy(2, 2, 4, 1, rng))
        terms = directed_information_stepwise(kin, chan)
        assert terms.min() >= -1e-12
        assert terms.sum() == approx(directed_information(kin, chan), abs=1e-9)


def test_stepwise_single_step_is_plain_mi():
    kin = open_loop_kernel(SequencePmf(2, 1, np.array([0.6, 0.4])), 2)
    chan = build_sequence_kernel(PostAlpha(0.5), 1, 0).kernel
    terms = directed_information_stepwise(kin, chan)
    assert terms == approx([directed_information(kin, chan)])


def test_open_loop_input_reduces_to_mutual_information():
    # when the input ignores the feedback the total equals I(X^n; Y^n)
    rng = np.random.default_rng(11)
    spec = PostAB(0.85, 0.65)
    n = 3
    raw = rng.uniform(0.1, 1.0, 2**n)
    pmf = SequencePmf(2, n, raw / raw.sum())
    chan = build_sequence_kernel(spec, n, 0).kernel
    di = directed_information(open_loop_kernel(pmf, 2), chan)
    # independent route: joint entropy bookkeeping
    joint = chan.values * pmf.values[None, :]
    py = joint.sum(axis=1)
    mask = joint > 0
    mi = (joint[mask] * np.log2(joint[mask] / (py[:, None] * pmf.values[None, :])[mask])).sum()
    assert di == approx(float(mi), abs=1e-10)


def test_di_bounds_hold():
    rng = np.random.default_rng(5)
    chan = build_sequence_kernel(MaryPost(1), 3, 0).kernel
    for _ in range(20):
        kin = compose_causal(random_policy(2, 2, 3, 1, rng))
        val = directed_information(kin, chan)
        assert 0.0 <= val <= 3.0 + 1e-12


@pytest.mark.parametrize("spec, n", [(PostAB(0.9, 0.7), 8), (MaryPost(4), 4)])
def test_directed_information_sum_within_4_ulp_of_fsum(spec, n):
    # a left-to-right sum of these terms is 81 to 569 ulp off on these kernels
    cfg = OptimizerConfig(max_iterations=20000, kkt_tolerance=1e-7)
    for s0 in (0, 1):
        kin, _, _ = maximize_di_feedback(spec, n, s0, cfg)
        chan = build_sequence_kernel(spec, n, s0).kernel
        joint = _joint(kin, chan)
        py = np.broadcast_to(joint.sum(axis=1)[:, None], joint.shape)
        mask = joint > 0
        exact = math.fsum(joint[mask] * (np.log2(chan.values[mask]) - np.log2(py[mask])))
        assert abs(directed_information(kin, chan) - exact) <= 4 * math.ulp(exact)


# -- mutual information given the initial state -------------------------------


def test_mi_uniform_noiseless():
    pmf = SequencePmf(2, 3, np.full(8, 0.125))
    assert mutual_information_given_state(NOISELESS, 3, 0, pmf) == approx(3.0)


def test_mi_z_channel_optimal_input():
    pmf = SequencePmf(2, 1, np.array([0.6, 0.4]))
    assert mutual_information_given_state(PostAlpha(0.5), 1, 0, pmf) == approx(
        0.32192809488736235, abs=1e-12
    )


# 3 inputs, 2 outputs, input 1 never yields output 0 from state 0
WIDE_CUSTOM = CustomPost(([[0.8, 0.0, 0.5], [0.2, 1.0, 0.5]], [[0.1, 0.6, 0.3], [0.9, 0.4, 0.7]]))


@pytest.mark.parametrize("spec", [PostAlpha(0.3), PostAB(0.9, 0.7), MaryPost(2), WIDE_CUSTOM])
def test_mi_from_passes_matches_dense_joint(spec):
    rng = np.random.default_rng(13)
    x, y = spec.input_size, len(spec.state_classes)
    for n in range(1, 6):
        point = np.zeros(x**n)
        point[rng.integers(x**n)] = 1.0
        for values in (rng.dirichlet(np.ones(x**n)), point):
            pmf = SequencePmf(x, n, values)
            for s0 in range(y):
                chan = build_sequence_kernel(spec, n, s0).kernel
                want = directed_information(open_loop_kernel(pmf, y), chan)
                assert abs(mutual_information_given_state(spec, n, s0, pmf) - want) < 1e-12


def test_mi_point_mass_is_zero():
    values = np.zeros(8)
    values[3] = 1.0
    pmf = SequencePmf(2, 3, values)
    assert mutual_information_given_state(PostAlpha(0.3), 3, 0, pmf) == approx(0.0, abs=1e-12)


# -- concavity ------------------------------------------------------------------


def test_concavity_probe_equality_cases():
    rng = np.random.default_rng(9)
    chan = build_sequence_kernel(PostAlpha(0.4), 3, 0).kernel
    p1 = compose_causal(random_policy(2, 2, 3, 1, rng))
    p2 = compose_causal(random_policy(2, 2, 3, 1, rng))
    lhs, rhs = concavity_probe(chan, p1, p1, 0.7)
    assert lhs == approx(rhs, abs=1e-14)
    for theta in (0.0, 1.0):
        lhs, rhs = concavity_probe(chan, p1, p2, theta)
        assert lhs == approx(rhs, abs=1e-14)


def test_concavity_probe_random_mixtures():
    rng = np.random.default_rng(17)
    chan = build_sequence_kernel(PostAlpha(0.4), 3, 0).kernel
    for _ in range(100):
        p1 = compose_causal(random_policy(2, 2, 3, 1, rng))
        p2 = compose_causal(random_policy(2, 2, 3, 1, rng))
        theta = float(rng.uniform())
        lhs, rhs = concavity_probe(chan, p1, p2, theta)
        assert lhs >= rhs - 1e-12
