import itertools
import math
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from postcap import (
    PostAB,
    PostAlpha,
    beta_interval_alpha,
    beta_intervals_ab,
    binary_dmc_capacity,
    build_sequence_kernel,
    closed_form_solution,
    compose_causal,
    induction_step_check,
    inequality_sweep,
    open_loop_match,
    output_markov_pmf,
    post_alpha_capacity,
    recursive_input_ab,
    recursive_input_alpha,
)
from postcap import construction
from postcap.channels import _vector_level_row, _vector_levels
from postcap.construction import _input_coeffs, _input_levels, _open_loop_input, _output_chain, _output_state_policy

from dense_reference import feedback_policy, output_state_policy


# -- symmetric Markov output pmf ----------------------------------------------


def test_markov_pmf_zero_noise_is_point_mass():
    pmf = output_markov_pmf(0.0, 3, 0)
    want = np.zeros(8)
    want[0] = 1.0
    assert pmf.values == approx(want)


def test_markov_pmf_hand_computed():
    pmf = output_markov_pmf(0.2, 2, 0)
    assert pmf.values == approx([0.64, 0.16, 0.04, 0.16])
    flipped = output_markov_pmf(0.2, 2, 1)
    assert flipped.values == approx([0.16, 0.04, 0.16, 0.64])


def test_markov_pmf_conditionals_are_state_symmetric():
    delta = 0.3
    n = 4
    for s0 in (0, 1):
        arr = output_markov_pmf(delta, n, s0).values
        # p(y_n | y^{n-1}) depends on y_{n-1} only
        joint = arr.reshape(-1, 2, 2).sum(axis=0)  # (y_{n-1}, y_n)
        cond = joint / joint.sum(axis=1, keepdims=True)
        assert cond[0] == approx([1 - delta, delta])
        assert cond[1] == approx([delta, 1 - delta])


# -- recursive open-loop inputs --------------------------------------------------


def test_recursive_input_alpha_base_case():
    assert recursive_input_alpha(0.5, 1, 0).values == approx([0.6, 0.4])
    assert recursive_input_alpha(0.5, 1, 1).values == approx([0.4, 0.6])


def test_recursive_input_alpha_normalization_deep():
    for alpha in (0.1, 0.5, 0.9):
        for n in range(1, 13):
            pmf = recursive_input_alpha(alpha, n, 0)
            assert abs(pmf.values.sum() - 1.0) < 1e-12
            assert pmf.values.min() >= -1e-12


def test_recursive_input_alpha_horizon_consistent():
    # lengthening the horizon never disturbs the earlier marginals, so the
    # family defines one consistent process; in particular the first-symbol
    # law is the same for every n
    alpha = 0.35
    n = 10
    pmf = recursive_input_alpha(alpha, n, 0)
    for i in range(1, n):
        lhs = pmf.prefix_marginal(i).values
        rhs = recursive_input_alpha(alpha, i, 0).values
        assert np.abs(lhs - rhs).max() < 1e-12


def test_recursive_input_suffix_marginal_is_state_blend():
    # the last-symbol marginal is the per-state law averaged over the
    # output chain, not the single-letter law itself: the process mixes
    # away from its initial state
    last = recursive_input_alpha(0.5, 2, 0).values.reshape(2, 2).sum(axis=0)
    assert last == approx([0.56, 0.44], abs=1e-14)
    p0 = recursive_input_alpha(0.5, 1, 0).values
    p1 = recursive_input_alpha(0.5, 1, 1).values
    assert last == approx(0.8 * p0 + 0.2 * p1, abs=1e-14)


def test_recursive_input_matches_linear_solve():
    for spec, build in [
        (PostAlpha(0.3), lambda n, s0: recursive_input_alpha(0.3, n, s0)),
        (PostAB(0.9, 0.7), lambda n, s0: recursive_input_ab(0.9, 0.7, n, s0)),
    ]:
        delta = closed_form_solution(spec).output_markov_transition
        for s0 in (0, 1):
            n = 6
            direct = build(n, s0).values
            target = output_markov_pmf(delta, n, s0).values
            # a reference outside the block recursion: LU on the dense kernel
            chan = build_sequence_kernel(spec, n, s0).kernel.values
            assert np.abs(direct - np.linalg.solve(chan, target)).max() < 1e-10


def test_recursive_input_induces_markov_output():
    for spec, pmf_fn, delta in [
        (PostAlpha(0.4), lambda n, s0: recursive_input_alpha(0.4, n, s0),
         post_alpha_capacity(0.4).output_markov_transition),
        (PostAB(0.85, 0.75), lambda n, s0: recursive_input_ab(0.85, 0.75, n, s0),
         binary_dmc_capacity(0.85, 0.75).output_markov_transition),
    ]:
        for s0 in (0, 1):
            n = 8
            chan = build_sequence_kernel(spec, n, s0).kernel.values
            out = chan @ pmf_fn(n, s0).values
            assert np.abs(out - output_markov_pmf(delta, n, s0).values).max() < 1e-10


def test_recursive_input_ab_reduces_to_alpha():
    for n in (1, 3, 5):
        for s0 in (0, 1):
            lhs = recursive_input_ab(1.0, 0.5, n, s0).values
            rhs = recursive_input_alpha(0.5, n, s0).values
            assert np.abs(lhs - rhs).max() < 1e-12


def test_recursive_input_ab_base_case_formula():
    a, b = 0.9, 0.7
    gamma = binary_dmc_capacity(a, b).gamma
    scale = (a + b - 1) * (gamma + 1)
    want = np.array([b * gamma - (1 - b), a - (1 - a) * gamma]) / scale
    assert want.min() >= 0
    assert recursive_input_ab(a, b, 1, 0).values == approx(want)


def test_recursive_input_ab_symmetric_channel():
    pmf = recursive_input_ab(0.8, 0.8, 6, 0)
    # symmetric parameters give symbol-balanced marginals: the last symbol's and the first two's
    for marg in (pmf.values.reshape(-1, 2).sum(axis=0), pmf.prefix_marginal(2).values):
        assert marg[0] == approx(marg[-1], abs=1e-12)
    assert pmf.prefix_marginal(1).values == approx([0.5, 0.5], abs=1e-12)


def test_recursive_input_ab_requires_nondegenerate():
    with pytest.raises(ValueError):
        recursive_input_ab(0.3, 0.7, 2, 0)


def test_start_checks_of_the_binary_constructions():
    # feedback_policy composes an output-state policy, so it passes the causal kernel's gate
    with pytest.raises(ValueError, match="positive"):
        feedback_policy(PostAlpha(0.5), 0, 0)
    with pytest.raises(ValueError, match="causal kernel would hold 2097152 entries"):
        feedback_policy(PostAlpha(0.5), 11, 0)
    with pytest.raises(ValueError, match="out of range"):
        feedback_policy(PostAlpha(0.5), 3, 2)
    with pytest.raises(ValueError, match="out of range"):
        recursive_input_ab(0.9, 0.7, 3, 2)


def test_vector_recursion_size_guard_raises_before_allocating():
    # 2^21 entries per row exceed DENSE_ENTRY_CAP; without the guard each
    # call would allocate tens of MB
    for build in (lambda: output_markov_pmf(0.3, 21, 0), lambda: recursive_input_alpha(0.3, 21, 0)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="entries"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


@pytest.mark.parametrize(
    "spec",
    [PostAlpha(0.37), PostAB(0.9, 0.7), PostAB(0.6, 0.5), PostAlpha(0.3), PostAB(0.788, 0.2854), PostAB(0.5, 0.5001)],
)
def test_last_level_row_is_that_row_of_the_full_level(spec):
    # the open-loop inputs and the Markov output law build only row s0 of
    # level n, in place and block by block, with the same products as the
    # full level: equal byte for byte up to the dense cap
    chain = _output_chain(closed_form_solution(spec).output_markov_transition)
    for coeffs in (_input_coeffs(spec), np.array([np.diag(chain[:, s]) for s in (0, 1)])):
        for n, level in enumerate(itertools.chain([np.ones((2, 1))], _vector_levels(coeffs, 20))):
            for s0 in (0, 1):
                row = _vector_level_row(coeffs, n, s0)
                assert row.shape == (2**n,) and row.tobytes() == level[s0].tobytes(), (n, s0)


def test_last_level_row_is_built_in_the_returned_row():
    # the 2^20-entry row holds level 19; beside it only a 2^19-entry
    # scratch level and a block buffer are allocated
    coeffs = _input_coeffs(PostAB(0.9, 0.7))
    tracemalloc.start()
    try:
        _vector_level_row(coeffs, 20, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * 2**20


MARKOV_DELTAS = [0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0, *np.random.default_rng(23).uniform(0.0, 1.0, 20)]


@pytest.mark.parametrize("delta", MARKOV_DELTAS)
def test_markov_pmf_is_the_diagonal_recursion_bit_for_bit(delta):
    # the in-place row is the vector recursion with coefficients diag T_s:
    # the same products, so the same bits, signed zeros included
    coeffs = np.array([np.diag(column) for column in _output_chain(delta).T])
    for n in range(1, 15):
        for s0 in (0, 1):
            values = output_markov_pmf(delta, n, s0).values
            want = _vector_level_row(coeffs, n, s0)
            assert values.dtype == want.dtype and values.tobytes() == want.tobytes()


def test_markov_pmf_is_built_in_one_row():
    # no level, product or copy beside the 2^16-entry row the pmf keeps
    tracemalloc.start()
    try:
        pmf = output_markov_pmf(0.2, 16, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * 2**16
    assert pmf.values.base is None and not pmf.values.flags.writeable


@pytest.mark.parametrize("spec", [PostAlpha(0.37), PostAB(0.9, 0.7), PostAB(0.6, 0.5)])
def test_open_loop_pmfs_adopt_their_arrays(spec, monkeypatch):
    # the open-loop input keeps the row the recursion built; the matched
    # input and the marginals keep arrays of their own, read-only
    rows = []

    def recorded(*args):
        rows.append(_vector_level_row(*args))
        return rows[-1]

    monkeypatch.setattr(construction, "_vector_level_row", recorded)
    assert _open_loop_input(spec, 6, 0).values is rows[-1]
    pmf = open_loop_match(spec, 6, 1).input_pmf
    for marginal in (pmf, pmf.prefix_marginal(2), pmf.prefix_marginal(6)):
        assert marginal.values.base is None and not marginal.values.flags.writeable
    for coeffs in (_input_coeffs(spec), np.array([np.diag(c) for c in _output_chain(0.2).T])):
        row = _vector_level_row(coeffs, 5, 1)
        assert row.base is None and not row.flags.writeable


def _induction_reference(spec, beta, n, slack=1e-12):
    for p0, p1 in _input_levels(spec, n):
        if (beta * p1 - p0).min() < -slack or (beta * p0 - p1).min() < -slack:
            return False
    return True


@pytest.mark.parametrize("spec", [PostAB(0.9, 0.7), PostAB(0.6, 0.5), PostAlpha(0.3), PostAB(0.55, 0.5)])
def test_induction_step_check_matches_the_two_temporaries_form(spec):
    # level n is checked from level n - 1 block by block; at n = 17 that
    # level spans several blocks
    witness = beta_intervals_ab(spec.a, spec.b).nonempty_witness if isinstance(spec, PostAB) else 2.0
    for beta in (witness, 1.0, 0.5, 1.5, 3.0, 1e3):
        for n in (0, 1, 2, 4, 9, 17):
            assert induction_step_check(spec, beta, n) == _induction_reference(spec, beta, n)


def test_induction_step_check_never_holds_level_n():
    # the check holds level n - 1 and the level before it while that one
    # is built, not the 2^21-entry level n; past the dense cap it raises
    spec = PostAB(0.9, 0.7)
    witness = beta_intervals_ab(0.9, 0.7).nonempty_witness
    tracemalloc.start()
    try:
        assert induction_step_check(spec, witness, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * 2**20
    with pytest.raises(ValueError, match="entries"):
        induction_step_check(spec, witness, 21)


def test_output_state_kernel_is_the_composed_policy():
    # steps with first axis 1 broadcast over the past inputs: the composed
    # kernel equals that of the dense reference's full steps bit for bit
    rng = np.random.default_rng(5)
    for k, x, n in ((2, 2, 1), (2, 2, 7), (3, 2, 4), (2, 3, 4), (5, 5, 3)):
        laws = [rng.dirichlet(np.ones(x), size=k) for _ in range(n)]
        for s0 in range(k):
            want = compose_causal(output_state_policy(laws, s0))
            policy = _output_state_policy(laws, s0)
            assert all(len(step) == 1 for step in policy.steps)
            got = compose_causal(policy)
            assert (got.out_alphabet, got.in_alphabet, got.n, got.delay) == (x, k, n, 1)
            assert np.array_equal(got.values, want.values)


# -- multiplier intervals ----------------------------------------------------------


def test_beta_interval_alpha_values():
    lo, hi = beta_interval_alpha(0.5)
    root = math.sqrt(0.5)
    assert lo == approx((1 + root) / 1.0, abs=1e-12)
    assert hi == approx((1 + root) / 0.5, abs=1e-12)


def test_beta_interval_alpha_bounds_on_grid():
    for alpha in np.linspace(0.001, 0.999, 999):
        lo, hi = beta_interval_alpha(alpha)
        assert lo <= hi
        assert lo >= 1.0 - 1e-12
        assert hi <= alpha ** (-1.0 / (1.0 - alpha)) + 1e-9


def test_beta_intervals_ab_z_channel_case():
    iv = beta_intervals_ab(1.0, 0.5)
    assert iv.l0 == approx((1.0, 4.0))
    assert iv.nonempty_witness is not None
    lo, hi = beta_interval_alpha(0.5)
    assert lo - 1e-12 <= iv.nonempty_witness <= hi + 1e-12


def test_beta_intervals_ab_relabel_below_the_line():
    # a + b < 1 is the channel with both outputs relabelled
    for a, b in ((0.75, 0.625), (0.875, 0.5), (0.5, 0.75)):
        assert beta_intervals_ab(1 - a, 1 - b) == beta_intervals_ab(a, b)


def test_beta_intervals_symmetric_channel():
    iv = beta_intervals_ab(0.8, 0.8)
    assert iv.nonempty_witness is not None
    assert iv.l0[0] == approx(1.0)
    # gamma = 1 for a = b, so the unit multiplier is always admissible
    assert iv.l0[0] - 1e-12 <= 1.0 <= iv.l0[1] + 1e-12


def test_beta_witness_exists_on_grid():
    axis = np.linspace(0.0, 1.0, 52)[1:-1]
    for a in axis:
        for b in axis:
            if a + b - 1.0 <= 1e-9:
                continue
            iv = beta_intervals_ab(a, b)
            assert iv.nonempty_witness is not None, (a, b)


def test_induction_step_check():
    assert induction_step_check(PostAlpha(0.5), 2.0, 10)
    assert not induction_step_check(PostAlpha(0.5), 1.01, 3)
    witness = beta_intervals_ab(0.9, 0.7).nonempty_witness
    assert induction_step_check(PostAB(0.9, 0.7), witness, 8)


def test_witness_satisfies_induction_on_small_grid():
    axis = np.linspace(0.05, 0.95, 10)
    for a in axis:
        for b in axis:
            if a + b - 1.0 <= 1e-9:
                continue
            witness = beta_intervals_ab(a, b).nonempty_witness
            assert induction_step_check(PostAB(a, b), witness, 10), (a, b)


# -- supporting inequality sweeps ------------------------------------------------


def test_inequality_sweep_passes():
    report = inequality_sweep(200)
    assert report.passed
    names = {c.name for c in report.checks}
    assert "four_alpha_pow_le_1" in names
    assert "gamma_sq_discriminant" in names


def _reference_ab_margins(grid_size):
    """The two-parameter margins over a meshgrid, every temporary kept: (name, worst) in sweep order."""
    axis = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    a, b = np.meshgrid(axis, axis, indexing="ij")
    base = a + b - 1.0 > 1e-9
    a, b = a[base], b[base]
    abar, bbar = 1.0 - a, 1.0 - b
    ha = -(a * np.log2(a) + abar * np.log2(abar))
    hb = -(b * np.log2(b) + bbar * np.log2(bbar))
    gamma = 2.0 ** ((hb - ha) / (a + b - 1.0))
    bal = a * abar <= b * bbar
    disc1 = gamma**2 * (abar + b) ** 2 - 4.0 * a * bbar
    margins = [
        ("gamma_sq_discriminant", disc1),
        ("gamma_sq_discriminant_swapped", (a + bbar) ** 2 - 4.0 * abar * b * gamma**2),
        ("a_ge_b", (a - b)[bal]),
        ("lower_root_le_two_bbar", (2.0 * bbar - (gamma * (abar + b) - np.sqrt(np.maximum(disc1, 0.0))))[bal]),
        ("b_gamma_over_a_ge_1", (b * gamma / a - 1.0)[bal]),
        ("gamma_sq_le_a_sq_over_b_abar", a**2 / (b * abar) - gamma**2),
        ("gamma_abar_plus_b_ge_two_bbar", (gamma * (abar + b) / (2.0 * bbar) - 1.0)[bal]),
        ("gamma_ge_bbar_over_b", gamma - bbar / b),
        ("gamma_le_a_over_abar", a / abar - gamma),
    ]
    return [(name, float(np.min(m))) for name, m in margins]


@pytest.mark.parametrize("grid_size", [10, 37, 200])
def test_inequality_sweep_matches_meshgrid_reference(grid_size):
    checks = inequality_sweep(grid_size).checks[3:]
    assert [(c.name, c.worst_margin) for c in checks] == _reference_ab_margins(grid_size)


def test_inequality_sweep_peak_memory():
    # one float array over the 1000 x 1000 grid is 7.6 MiB; the sweep holds
    # about 3.5 such arrays' worth at once
    tracemalloc.start()
    try:
        report = inequality_sweep(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 32 * 2**20


def test_inequality_sweep_spot_value():
    # at alpha = 1/2 the quartic bound evaluates to exactly 1/2
    assert 4.0 * 0.5 ** ((0.5 + 1.0) / 0.5) == approx(0.5)
