import itertools
import math

import numpy as np
import pytest
from pytest import approx

from postcap import channels
from postcap import (
    CustomPost,
    MaryPost,
    PostAB,
    PostAlpha,
    SingularChannelError,
    build_sequence_kernel,
    initial_states,
    step_kernel,
)
from postcap.channels import (
    _backward_pass,
    _canonical_digits,
    _channel_steps,
    _check_lumped_size,
    _divergences,
    _forward_pass,
    _inverse_class_matrices,
    _lumped_channel,
    _merge_equal_columns,
    _vector_levels,
)
from postcap.closed_form import mary_state_policy
from postcap.construction import output_markov_pmf
from postcap.probability import SequencePmf

from channel_cases import PASS_SPECS
from dense_reference import feedback_policy, induced_output_pmf, open_loop_kernel, validate_causal


# -- one-step kernels ---------------------------------------------------------


def test_step_kernel_post_alpha():
    alpha = 0.3
    z = step_kernel(PostAlpha(alpha), 0)
    s = step_kernel(PostAlpha(alpha), 1)
    assert z == approx(np.array([[1.0, alpha], [0.0, 1 - alpha]]))
    assert s == approx(np.array([[1 - alpha, 0.0], [alpha, 1.0]]))


def test_step_kernel_post_ab():
    a, b = 0.9, 0.7
    assert step_kernel(PostAB(a, b), 0) == approx(np.array([[a, 1 - b], [1 - a, b]]))
    assert step_kernel(PostAB(a, b), 1) == approx(np.array([[b, 1 - a], [1 - b, a]]))


@pytest.mark.parametrize("m", [1, 2, 4])
def test_mary_step_kernel_reproduces_induced_chain(m):
    # oracle: under the two-parameter stationary policy the induced output
    # chain must have the five known transition patterns
    spec = MaryPost(m)
    for gamma, delta in [(0.3, 0.6), (0.0, 1.0), (0.9, 0.1), (0.5, 0.5)]:
        pol = mary_state_policy(m, gamma, delta)
        for state in range(m + 1):
            trans = step_kernel(spec, state) @ pol[state]
            if state < m:
                assert trans[m] == approx((1 + gamma) / 2)
                for y in range(m):
                    assert trans[y] == approx((1 - gamma) / (2 * m))
            else:
                assert trans[m] == approx(1 - delta)
                assert trans[0] == approx(delta)
                assert trans[1:m] == approx(np.zeros(m - 1))


def test_step_kernel_rejects_bad_state():
    with pytest.raises(ValueError):
        step_kernel(PostAlpha(0.5), 2)


def test_custom_spec_validation():
    eye = np.eye(2)
    CustomPost((eye, eye))
    with pytest.raises(ValueError):
        CustomPost((eye,))  # state count != output alphabet
    with pytest.raises(ValueError):
        CustomPost((np.array([[0.7, 0.2], [0.2, 0.8]]),) * 2)


def test_custom_spec_rejects_non_finite_entries():
    # NaN fails every comparison, so the range and column-sum checks alone let it through
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            CustomPost(([[bad, 0.5], [bad, 0.5]], [[0.5, 0.5], [0.5, 0.5]]))


# -- sequence kernels ----------------------------------------------------------


def test_sequence_kernel_n1_matches_step():
    alpha = 0.4
    for s0 in (0, 1):
        mat = build_sequence_kernel(PostAlpha(alpha), 1, s0).kernel.values
        assert mat == approx(step_kernel(PostAlpha(alpha), s0))


def test_sequence_kernel_n2_post_alpha_entrywise():
    alpha = 0.37
    abar = 1 - alpha
    want = np.array(
        [
            [1.0, alpha, alpha, alpha**2],
            [0.0, abar, 0.0, alpha * abar],
            [0.0, 0.0, abar**2, 0.0],
            [0.0, 0.0, abar * alpha, abar],
        ]
    )
    got = build_sequence_kernel(PostAlpha(alpha), 2, 0).kernel.values
    assert got == approx(want)


def test_sequence_kernel_top_left_block_recursion():
    spec = PostAlpha(0.3)
    small = build_sequence_kernel(spec, 3, 0).kernel.values
    big = build_sequence_kernel(spec, 4, 0).kernel.values
    assert np.array_equal(big[:8, :8], small)


def test_mary_sequence_kernel_matches_path_products():
    # frozen from an explicit product over the 16 paths of MaryPost(1), n=2
    want = np.array(
        [
            [0.25, 0.0, 0.0, 0.0],
            [0.25, 0.5, 0.0, 0.0],
            [0.0, 0.5, 0.0, 1.0],
            [0.5, 0.0, 1.0, 0.0],
        ]
    )
    got = build_sequence_kernel(MaryPost(1), 2, 0).kernel.values
    assert got == approx(want)


@pytest.mark.parametrize(
    "spec,n",
    [
        (PostAlpha(0.3), 6),
        (PostAB(0.9, 0.7), 5),
        (MaryPost(2), 4),
        (MaryPost(4), 3),
    ],
)
def test_sequence_kernel_columns_stochastic(spec, n):
    for s0 in initial_states(spec):
        kernel = build_sequence_kernel(spec, n, s0).kernel
        assert kernel.values.sum(axis=0) == approx(np.ones(kernel.values.shape[1]))
        assert validate_causal(kernel).passed


def test_mary_kernel_nonzeros_per_column_bounded():
    for m, n in [(1, 6), (2, 5), (4, 4)]:
        values = build_sequence_kernel(MaryPost(m), n, 0).kernel.values
        assert np.count_nonzero(values, axis=0).max() <= 2**n


def _right_nested(spec, n, s0):
    """p(y^n || x^n, s0) entry by entry: P_s0[y1, x1] * (P_y1[y2, x2] * (... * P_y(n-1)[yn, xn]))."""
    mats = [step_kernel(spec, s) for s in range(len(spec.state_classes))]
    ys = list(itertools.product(range(len(mats)), repeat=n))
    xs = list(itertools.product(range(spec.input_size), repeat=n))
    out = np.empty((len(ys), len(xs)))
    for (r, y), (c, x) in itertools.product(enumerate(ys), enumerate(xs)):
        value = 1.0
        for i in reversed(range(n)):
            value = mats[y[i - 1] if i else s0][y[i], x[i]] * value
        out[r, c] = value
    return out


def test_sequence_kernel_is_the_right_nested_product_bit_for_bit():
    rng = np.random.default_rng(19)
    custom = CustomPost(tuple(rng.dirichlet(np.ones(3), size=2).T for _ in range(3)))
    for spec, top in ((PostAB(0.6, 0.5), 4), (PostAlpha(0.3), 4), (MaryPost(2), 3), (custom, 3)):
        for n in range(1, top + 1):
            for s0 in range(len(spec.state_classes)):
                got = build_sequence_kernel(spec, n, s0).kernel.values
                assert np.array_equal(got, _right_nested(spec, n, s0))


def test_dense_cap_enforced():
    with pytest.raises(ValueError, match="entries"):
        build_sequence_kernel(MaryPost(4), 6, 0)
    with pytest.raises(ValueError, match="storage"):
        build_sequence_kernel(MaryPost(1), 2, 0, storage="sparse")


# -- matrix-free channel passes ---------------------------------------------------


@pytest.mark.parametrize("spec", PASS_SPECS)
def test_channel_passes_match_dense_kernel(spec):
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        for s0 in range(len(spec.state_classes)):
            chan = build_sequence_kernel(spec, n, s0).kernel.values
            p = rng.dirichlet(np.ones(chan.shape[1]))
            steps, ent = _channel_steps(spec, n, s0)
            q = _forward_pass(steps, s0, n, p)
            assert np.abs(q - chan @ p).max() < 1e-13
            ln_q = np.log(q, where=q > 0, out=np.zeros_like(q))
            ln_c = np.log(chan, where=chan > 0, out=np.zeros_like(chan))
            want = (chan * (ln_c - ln_q[:, None])).sum(axis=0)
            assert np.abs(_backward_pass(steps, ent, s0, n, ln_q) - want).max() < 1e-12


# -- lumped channel on label-symmetry orbits --------------------------------------


def _sequence_orbits(m, n):
    """Orbit of every sequence of MaryPost(m), in sequence order: the rank of its orbit code."""
    index = np.arange((m + 1) ** n)
    fixed_index = np.full(m + 1, -1, np.int16)
    fixed_index[[0, m]] = (0, 1)
    most = min(m - 1, n)
    codes, k = np.zeros(len(index), np.int64), np.zeros(len(index), np.int16)
    seen = np.full((len(index), most + 1), -1, np.int16)
    for i in range(n):
        d = (index // (m + 1) ** (n - 1 - i) % (m + 1)).astype(np.int16)
        codes = codes * (2 + most) + _canonical_digits(k, seen, d, fixed_index)
    return np.unique(codes, return_inverse=True)[1]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_lumped_divergences_match_channel_passes(m):
    # at an orbit-constant law every sequence of an orbit has the orbit's divergence
    rng = np.random.default_rng(13)
    spec = MaryPost(m)
    for n in (1, 2, 3, 4):
        for s0 in (0, m):
            lumped = _lumped_channel(spec, n, s0)
            orbits = _sequence_orbits(m, n)
            assert lumped.sizes.sum() == (m + 1) ** n
            assert np.array_equal(np.bincount(orbits), lumped.sizes)
            masses = rng.dirichlet(np.ones(len(lumped.sizes)))
            p = masses[orbits] / lumped.sizes[orbits]
            steps, ent = _channel_steps(spec, n, s0)
            want = _divergences(steps, ent, s0, n, p)
            assert np.abs(lumped.divergences(masses)[orbits] - want).max() < 1e-12


def test_lumped_channel_stores_nonzeros_in_input_orbit_order():
    # a pass reads law[cols] as law.repeat(counts), and base folds the size term in
    for m, n, s0 in ((2, 3, 0), (4, 6, 0), (4, 6, 4), (8, 7, 8)):
        lumped = _lumped_channel(MaryPost(m), n, s0)
        assert (np.diff(lumped.cols) >= 0).all()
        assert lumped.counts.sum() == len(lumped.values) == len(lumped.rows)
        assert np.array_equal(np.repeat(np.arange(len(lumped.counts)), lumped.counts), lumped.cols)
        ent = np.bincount(lumped.cols, lumped.values * np.log(lumped.values))
        sizes = np.bincount(lumped.cols, lumped.values * lumped.log_sizes[lumped.rows])
        assert np.abs(lumped.base - ent - sizes).max() < 1e-12


def test_lumped_channel_counts_at_n6():
    # the orbits and nonzeros do not depend on m once m - 1 >= n free labels exist
    for m, n, s0, orbits, nonzeros in (
        (4, 6, 0, 2990, 17782),
        (8, 6, 0, 3263, 19648),
        (8, 6, 8, 3263, 8764),
        (1024, 6, 0, 3263, 19648),
        (8, 7, 0, 17007, 129472),
        (8, 7, 8, 17007, 55816),
        (1024, 7, 0, 17007, 129472),
    ):
        lumped = _lumped_channel(MaryPost(m), n, s0)
        assert (len(lumped.sizes), len(lumped.values)) == (orbits, nonzeros)


def _column_classes(lumped):
    """Class of every input orbit by its sorted (row, value) nonzeros, numbered by lowest orbit."""
    columns = [
        tuple(sorted(zip(lumped.rows[lumped.cols == x].tolist(), lumped.values[lumped.cols == x].tolist())))
        for x in range(len(lumped.counts))
    ]
    number = {}
    return np.array([number.setdefault(column, len(number)) for column in columns])


def _check_merge(lumped, merged, classes):
    """The merge's classes are the exact column classes, each kept as its lowest orbit."""
    assert np.array_equal(classes, _column_classes(lumped))
    lowest = np.unique(classes, return_index=True)[1]
    assert np.array_equal(merged.counts, lumped.counts[lowest])
    assert np.array_equal(merged.base, lumped.base[lowest])
    assert np.array_equal(merged.sizes, np.bincount(classes, lumped.sizes))
    assert np.array_equal(merged.cols, np.repeat(np.arange(len(lowest)), merged.counts))
    kept = np.isin(lumped.cols, lowest)
    assert np.array_equal(merged.rows, lumped.rows[kept])
    assert np.array_equal(merged.values, lumped.values[kept])
    assert merged.log_sizes is lumped.log_sizes


def test_merged_lumped_channel_counts():
    # from state m every input below m gives output m, so many orbits share a column
    for n, s0, orbits, classes, nonzeros in ((6, 4, 2990, 662, 3275), (6, 0, 2990, 2223, 15017)):
        lumped = _lumped_channel(MaryPost(4), n, s0)
        merged, of_orbit = _merge_equal_columns(lumped)
        assert len(lumped.counts) == len(of_orbit) == orbits
        assert (len(merged.counts), len(merged.values)) == (classes, nonzeros)
        assert merged.sizes.sum() == 5**n


@pytest.mark.parametrize(
    "m, horizons", [(2, (1, 2, 3, 4)), (3, (1, 2, 3, 4)), (4, (1, 2, 3, 4)), (8, (6,))], ids=["2", "3", "4", "8"]
)
def test_merge_classes_are_the_exact_column_classes(m, horizons):
    for n in horizons:
        for s0 in (0, m):
            lumped = _lumped_channel(MaryPost(m), n, s0)
            _check_merge(lumped, *_merge_equal_columns(lumped))


def test_merge_compares_multisets_of_row_value_pairs():
    # orbits 0 and 1 store one multiset in two orders; orbits 2 and 3 share
    # their rows and their values but not their pairs; orbits 4 and 5 share
    # their summed column but not their counts; orbit 6 is orbit 0 with one
    # value one ulp higher, and orbit 7 is orbit 6 with its pairs' values swapped
    up = np.nextafter(0.5, 1.0)
    rows = np.array([1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0])
    values = np.array([0.5, 0.5, 0.5, 0.5, 0.25, 0.75, 0.75, 0.25, 1.0, 0.5, 0.5, 0.5, up, up, 0.5])
    counts = np.array([2, 2, 2, 2, 1, 2, 2, 2])
    cols = np.repeat(np.arange(8), counts)
    lumped = channels._LumpedChannel(rows, cols, counts, values, np.arange(8.0), np.ones(8), np.zeros(2))
    merged, classes = _merge_equal_columns(lumped)
    assert classes.tolist() == [0, 0, 1, 2, 3, 4, 5, 6]
    assert merged.rows.tolist() == [1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0]
    assert merged.values[-4:].tolist() == [0.5, up, up, 0.5]
    assert merged.sizes.tolist() == [2, 1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_merged_divergences_are_the_orbits(m):
    # at a class-constant law every orbit has its class's divergence
    rng = np.random.default_rng(29)
    for n in (2, 4, 6):
        for s0 in (0, m):
            lumped = _lumped_channel(MaryPost(m), n, s0)
            merged, classes = _merge_equal_columns(lumped)
            masses = rng.dirichlet(np.ones(len(merged.sizes)))
            orbit_masses = masses[classes] * lumped.sizes / merged.sizes[classes]
            want = lumped.divergences(orbit_masses)
            assert np.abs(merged.divergences(masses)[classes] - want).max() <= 1e-12


def test_lumped_size_check():
    with pytest.raises(ValueError, match="lumped channel would hold 3943253 entries"):
        _check_lumped_size(MaryPost(4), 9, 0)
    # 642,929 nonzeros fit, but not the orbit walk's 4 symbols for each
    with pytest.raises(ValueError, match="lumped channel's orbit walk would hold 2571716 entries"):
        _check_lumped_size(MaryPost(4), 8, 0)
    with pytest.raises(ValueError, match="not fixed by relabelling"):
        _check_lumped_size(MaryPost(4), 3, 2)
    with pytest.raises(ValueError, match="positive"):
        _check_lumped_size(MaryPost(4), 0, 0)


def test_lumped_start_check_names_its_failure():
    with pytest.raises(ValueError, match="initial state 7 out of range$"):
        _check_lumped_size(MaryPost(4), 3, 7)
    with pytest.raises(ValueError, match="initial state 2 not fixed by relabelling$"):
        _check_lumped_size(MaryPost(4), 3, 2)


# -- inverses: one-step matrices and the vector recursion ----------------------


def test_inverse_n1_post_alpha():
    inv = _inverse_class_matrices(PostAlpha(0.5))[0]
    assert inv == approx(np.array([[1.0, -1.0], [0.0, 2.0]]))


def test_inverse_n1_post_ab():
    a, b = 0.9, 0.7
    inv = _inverse_class_matrices(PostAB(a, b))[0]
    want = np.array([[b, -(1 - b)], [-(1 - a), a]]) / (a + b - 1)
    assert inv == approx(want)


INVERTIBLE_CUSTOM = CustomPost(
    (
        [[0.7, 0.2, 0.1], [0.2, 0.6, 0.3], [0.1, 0.2, 0.6]],
        [[0.5, 0.1, 0.3], [0.3, 0.8, 0.1], [0.2, 0.1, 0.6]],
        [[0.9, 0.3, 0.2], [0.05, 0.6, 0.2], [0.05, 0.1, 0.6]],
    )
)


def _recursive_inverse_residual(spec, chain, n, s0):
    """max |W p - q| for the Markov output law q of chain and p from the vector recursion.

    q has coefficients diag T_s and p = W^-1 q has P_s^-1 diag T_s; W is
    the dense kernel, built by the matrix recursion instead.
    """
    inverses = _inverse_class_matrices(spec)
    states = range(len(spec.state_classes))
    inputs = np.array([inverses[spec.state_classes[s]] * chain[:, s] for s in states])
    for p in _vector_levels(inputs, n):
        pass
    for q in _vector_levels(np.array([np.diag(chain[:, s]) for s in states]), n):
        pass
    return np.abs(build_sequence_kernel(spec, n, s0).kernel.values @ p[s0] - q[s0]).max()


@pytest.mark.parametrize(
    "spec", [PostAlpha(0.3), PostAB(0.85, 0.6), PostAB(0.2, 0.3), INVERTIBLE_CUSTOM]
)
@pytest.mark.parametrize("s0", [0, 1])
def test_inverse_times_kernel_is_identity(spec, s0):
    # W (W^-1 q) = q for the Markov law q of a random output chain
    k = len(spec.state_classes)
    chain = np.random.default_rng(s0).dirichlet(np.ones(k), size=k).T
    for n in (1, 2, 3):
        assert _recursive_inverse_residual(spec, chain, n, s0) < 1e-10


def test_inverse_identity_tolerance_scales_with_depth():
    spec = PostAB(0.9, 0.7)
    chain = np.array([[0.6, 0.3], [0.4, 0.7]])
    for n in (4, 6, 8):
        assert _recursive_inverse_residual(spec, chain, n, 0) < 1e-8 * 2**n


def test_singular_channels_raise():
    with pytest.raises(SingularChannelError):
        _inverse_class_matrices(PostAlpha(1.0))
    with pytest.raises(SingularChannelError):
        _inverse_class_matrices(PostAB(0.3, 0.7))
    with pytest.raises(SingularChannelError):
        _inverse_class_matrices(MaryPost(2))


# -- induced output law ----------------------------------------------------------


def test_induced_output_single_step():
    kin = open_loop_kernel(SequencePmf(2, 1, np.array([0.6, 0.4])), 2)
    out = induced_output_pmf(PostAlpha(0.5), 1, 0, kin)
    assert out.values == approx([0.8, 0.2])


def test_induced_output_point_mass_gives_kernel_column():
    spec = PostAB(0.8, 0.75)
    n = 3
    chan = build_sequence_kernel(spec, n, 0).kernel.values
    for col in (0, 5, 7):
        values = np.zeros(8)
        values[col] = 1.0
        kin = open_loop_kernel(SequencePmf(2, n, values), 2)
        out = induced_output_pmf(spec, n, 0, kin)
        assert out.values == approx(chan[:, col])


def test_induced_output_stationary_policy_is_markov():
    spec = PostAlpha(0.5)
    kin = feedback_policy(spec, 3, 0)
    out = induced_output_pmf(spec, 3, 0, kin)
    assert np.abs(out.values - output_markov_pmf(0.2, 3, 0).values).max() < 1e-14
