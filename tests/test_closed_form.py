import math
import struct
import warnings

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
    SingularChannelError,
    binary_dmc_capacity,
    binary_entropy,
    closed_form_solution,
    entropy,
    kkt_check,
    mary_feedback_capacity,
    mary_output_chain,
    mary_scheme_rate,
    mary_stationary_distribution,
    post_alpha_capacity,
    step_kernel,
)

from postcap.closed_form import DEGENERATE_EPS, _mary_lead, _mary_rate
from postcap.optimize import _feedback_stages

from dense_reference import binary_dmc_capacity_reference, iid_state_example, open_loop_kernel

# -- array-valued grid oracle of the m-ary rate ---------------------------------
# The rate on numpy arrays, for grid searches: an oracle independent of the
# closed-form roots in mary_feedback_capacity.


def _h2(p):
    """Vectorized binary entropy in bits with the 0 log 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    a, b = np.where(p > 0, p, 1.0), np.where(p < 1, 1.0 - p, 1.0)  # 1 log 1 = 0 for 0 log 0
    return (0.0 - a * np.log2(a)) - b * np.log2(b)


def oracle_rate(m, gamma, delta):
    """Per-use rate N / D of the stationary policy on broadcast arrays, in bits.

    N = 2 delta lead(gamma) + (1 + gamma) h(delta), D = 2 delta + 1 + gamma,
    lead(gamma) = (1 - gamma) log2(m) / 2 + h((1 + gamma) / 2) - (1 - gamma).
    Each entropy term depends on one of gamma, delta, so on a column of
    gammas and a row of deltas it is computed once per axis value.
    """
    gamma = np.asarray(gamma, dtype=float)
    delta = np.asarray(delta, dtype=float)
    lead = 0.5 * (1.0 - gamma) * math.log2(m) + _h2(0.5 * (1.0 + gamma)) - (1.0 - gamma)
    return (2.0 * delta * lead + (1.0 + gamma) * _h2(delta)) / (2.0 * delta + 1.0 + gamma)


def test_post_alpha_half():
    sol = post_alpha_capacity(0.5)
    assert sol.c == approx(0.8, abs=1e-15)
    assert sol.capacity_bits == approx(0.32192809488736235, abs=1e-12)
    assert sol.input_pmf == approx((0.6, 0.4), abs=1e-15)
    assert sol.output_markov_transition == approx(0.2, abs=1e-15)


def test_post_alpha_endpoints():
    assert post_alpha_capacity(0.0).capacity_bits == approx(1.0)
    assert post_alpha_capacity(1.0).capacity_bits == approx(0.0)
    assert sum(post_alpha_capacity(1.0).input_pmf) == approx(1.0)


def test_post_alpha_transition_range():
    for alpha in np.linspace(0.0, 1.0, 21):
        t = post_alpha_capacity(alpha).output_markov_transition
        assert -1e-15 <= t <= 0.5 + 1e-15


def test_binary_dmc_symmetric_is_bsc():
    sol = binary_dmc_capacity(0.9, 0.9)
    assert sol.capacity_bits == approx(1.0 - binary_entropy(0.9), abs=1e-12)
    assert sol.input_pmf == approx((0.5, 0.5), abs=1e-12)
    assert sol.gamma == approx(1.0, abs=1e-12)


def test_binary_dmc_z_channel_case():
    sol = binary_dmc_capacity(1.0, 0.5)
    assert sol.capacity_bits == approx(post_alpha_capacity(0.5).capacity_bits, abs=1e-14)
    assert sol.gamma == approx(4.0, abs=1e-12)
    assert sol.input_pmf == approx((0.6, 0.4), abs=1e-12)


def test_binary_dmc_values_against_direct_formula():
    # frozen from a direct evaluation of the capacity and pmf formulas
    sol = binary_dmc_capacity(0.9, 0.7)
    assert sol.capacity_bits == approx(0.29667180288050476, abs=1e-14)
    assert sol.gamma == approx(1.6101095407890391, abs=1e-13)
    assert sol.input_pmf == approx((0.5281238619984642, 0.47187613800153566), abs=1e-13)


def test_binary_dmc_degenerate_line():
    sol = binary_dmc_capacity(0.3, 0.7)
    assert sol.degenerate
    assert sol.capacity_bits == 0.0
    assert math.isnan(sol.gamma)


def test_binary_dmc_relabeling():
    sol = binary_dmc_capacity(0.2, 0.3)
    assert sol.relabeled
    assert (sol.a, sol.b) == (0.8, 0.7)
    assert sol.capacity_bits == approx(binary_dmc_capacity(0.8, 0.7).capacity_bits)


def test_binary_dmc_finite_next_to_the_degenerate_line():
    # 312 of these draws lie so close to a + b = 1 that 2^(h(b) / (a + b - 1))
    # alone overflows a float; the pmf scales both powers by the larger
    draws = np.random.default_rng(3).uniform(0.0, 1.0, (200_000, 2))
    for a, b in draws:
        sol = binary_dmc_capacity(a, b)
        values = (sol.capacity_bits, *sol.input_pmf, *sol.output_pmf)
        assert all(map(math.isfinite, values)), (a, b)
        assert sum(sol.input_pmf) == approx(1.0, abs=1e-9), (a, b)
    sol = binary_dmc_capacity(0.5, 0.5001)
    assert math.isfinite(sol.gamma) and min(sol.input_pmf) >= -1e-12


def test_alpha_grid_identity_with_dmc():
    for alpha in np.linspace(0.01, 0.99, 99):
        gap = abs(
            binary_dmc_capacity(1.0, 1.0 - alpha).capacity_bits
            - post_alpha_capacity(alpha).capacity_bits
        )
        assert gap <= 1e-10


def test_dmc_input_reproduces_output_pmf():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = rng.uniform(0.0, 1.0, 2)
        if a + b <= 1.005:
            continue
        sol = binary_dmc_capacity(a, b)
        onestep = step_kernel(PostAB(a, b), 0) @ np.array(sol.input_pmf)
        assert np.abs(onestep - np.array(sol.output_pmf)).max() < 1e-12
        assert sum(sol.input_pmf) == approx(1.0, abs=1e-12)
        assert min(sol.input_pmf) >= -1e-12


def test_closed_form_inputs_pass_single_step_certificate():
    for spec, pmf in [
        (PostAlpha(0.5), post_alpha_capacity(0.5).input_pmf),
        (PostAlpha(0.23), post_alpha_capacity(0.23).input_pmf),
        (PostAB(0.9, 0.7), binary_dmc_capacity(0.9, 0.7).input_pmf),
    ]:
        kin = open_loop_kernel(SequencePmf(2, 1, np.array(pmf)), 2)
        report = kkt_check(kin, spec, 1, 0, 1e-9)
        assert report.passed


def test_gamma_bounds_on_grid():
    axis = np.linspace(0.02, 0.98, 49)
    for a in axis:
        for b in axis:
            if a + b <= 1.01:
                continue
            sol = binary_dmc_capacity(a, b)
            assert sol.gamma >= (1 - b) / b - 1e-12
            assert sol.gamma <= a / (1 - a) + 1e-12


def test_binary_closed_forms_coerce_numpy_scalars_to_the_same_floats():
    # grid points are np.float64; the result is the Python-float one, bit for
    # bit, on the whole grid: the line a + b = 1 and the relabelled half too
    grid = np.linspace(0.0, 1.0, 201)
    for a in grid:
        want = post_alpha_capacity(float(a))
        got = post_alpha_capacity(a)
        assert repr(got) == repr(want)
        assert all(type(v) is float for v in (got.alpha, got.c, got.capacity_bits, *got.input_pmf))
        for b in grid:
            want = binary_dmc_capacity(float(a), float(b))
            got = binary_dmc_capacity(a, b)
            assert repr(got) == repr(want)  # float reprs round-trip: equal bits
            fields = (got.a, got.b, got.capacity_bits, got.gamma, *got.input_pmf, *got.output_pmf)
            assert all(type(v) is float for v in fields)
    assert binary_dmc_capacity(np.float64(0.3), np.float64(0.7)).degenerate
    assert binary_dmc_capacity(np.float64(0.2), np.float64(0.3)).relabeled


def _packed_fields(sol):
    """Every field of a PostABSolution, floats as their 8 bytes."""
    flat = [sol.a, sol.b, sol.capacity_bits, sol.gamma, *sol.input_pmf, *sol.output_pmf]
    return [struct.pack("<d", v) for v in flat] + [sol.relabeled, sol.degenerate]


def test_binary_dmc_capacity_keeps_the_bits_of_the_reference():
    # the inline entropies and the positional record change no bit: on the
    # 201 x 201 grid, around the degenerate line a + b = 1 and at the corners
    grid = np.linspace(0.0, 1.0, 201)
    points = [(a, b) for a in grid for b in grid]
    for a in grid:
        for d in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            b = 1.0 - a + d * DEGENERATE_EPS
            if 0.0 <= b <= 1.0:
                points.append((a, b))
    points += [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    for a, b in points:
        got, want = binary_dmc_capacity(a, b), binary_dmc_capacity_reference(a, b)
        assert type(got) is type(want) and _packed_fields(got) == _packed_fields(want), (a, b)


def test_solution_records_are_immutable_tuples_with_their_fields():
    records = [
        (post_alpha_capacity(0.3), ("alpha", "c", "capacity_bits", "input_pmf", "output_markov_transition")),
        (
            binary_dmc_capacity(0.9, 0.7),
            ("a", "b", "capacity_bits", "gamma", "input_pmf", "output_pmf", "relabeled", "degenerate"),
        ),
        (mary_feedback_capacity(4), ("m", "gamma_star", "delta_star", "capacity_bits", "stationary_pi")),
    ]
    for record, fields in records:
        assert isinstance(record, tuple) and type(record)._fields == fields
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
    ab = binary_dmc_capacity(0.9, 0.7)
    assert ab.degenerate is False and ab.output_markov_transition == ab.output_pmf[1]
    assert type(ab)(*ab[:-1]) == ab  # degenerate defaults to False
    assert binary_dmc_capacity(0.3, 0.7).degenerate is True


# -- m-ary feedback capacity ---------------------------------------------------


def test_mary_capacity_reference_rows():
    assert mary_feedback_capacity(1).capacity_bits == approx(0.7595, abs=5e-4)
    assert mary_feedback_capacity(4).capacity_bits == approx(1.0000, abs=5e-4)
    assert mary_feedback_capacity(1024).capacity_bits == approx(3.3818, abs=5e-4)


def test_mary_argmax_in_unit_square():
    sol = mary_feedback_capacity(8)
    assert 0.0 <= sol.gamma_star <= 1.0
    assert 0.0 <= sol.delta_star <= 1.0


def test_mary_stationary_distribution_balance():
    for m in (1, 2, 4, 16, 1024):
        sol = mary_feedback_capacity(m)
        pi = sol.stationary_pi
        assert pi.sum() == approx(1.0, abs=1e-10)
        assert pi.min() > 0
        chain = mary_output_chain(m, sol.gamma_star, sol.delta_star)
        assert np.abs(chain @ pi - pi).max() < 1e-10


def _mary_meshgrid_search(m):
    """The grid search on full meshgrid arrays: 201 points per axis, then 33
    x 33 refinements shrinking the cell eightfold down to 1e-8."""
    grid = np.linspace(0.0, 1.0, 201)
    gg, dd = np.meshgrid(grid, grid, indexing="ij")
    vals = oracle_rate(m, gg, dd)
    best = np.unravel_index(np.argmax(vals), vals.shape)
    g, d = gg[best], dd[best]
    width = grid[1] - grid[0]
    while width > 1e-8:
        width /= 8.0
        gs = np.clip(np.linspace(g - 8 * width, g + 8 * width, 33), 0.0, 1.0)
        ds = np.clip(np.linspace(d - 8 * width, d + 8 * width, 33), 0.0, 1.0)
        gg, dd = np.meshgrid(gs, ds, indexing="ij")
        vals = oracle_rate(m, gg, dd)
        best = np.unravel_index(np.argmax(vals), vals.shape)
        g, d = float(gg[best]), float(dd[best])
    return g, d, float(oracle_rate(m, g, d)), mary_stationary_distribution(m, g, d)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8, 100, 1000, 1024])
def test_mary_axis_search_equals_meshgrid_search(m):
    # the Bellman solution against a grid search; the search is limited by
    # the flatness of the rate at its top, so the argmax agrees to 1e-7
    sol = mary_feedback_capacity(m)
    g, d, cap, _ = _mary_meshgrid_search(m)
    assert abs(sol.capacity_bits - cap) <= 1e-14
    assert abs(sol.gamma_star - g) <= 1e-7 and abs(sol.delta_star - d) <= 1e-7
    want = mary_stationary_distribution(m, sol.gamma_star, sol.delta_star)
    assert np.array_equal(sol.stationary_pi, want)


def test_mary_capacity_is_the_oracle_rate_at_its_point():
    # the scalar rate is the array oracle's, bit for bit, on every row
    # of the benchmark's m range
    for m in range(1, 1025):
        sol = mary_feedback_capacity(m)
        assert sol.capacity_bits == float(oracle_rate(m, sol.gamma_star, sol.delta_star))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 100])
def test_mary_capacity_not_below_dense_grid(m):
    axis = np.linspace(0.0, 1.0, 2001)
    # 2001 x 2001 rates, in blocks of gamma rows to keep the arrays small
    best = max(oracle_rate(m, axis[i : i + 401, None], axis).max() for i in range(0, 2001, 401))
    assert mary_feedback_capacity(m).capacity_bits >= best - 1e-15


def test_mary_capacity_finite_at_stationary_law_cap():
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        sol = mary_feedback_capacity(2**20 - 1)
    assert math.isfinite(sol.capacity_bits) and 0.0 < sol.capacity_bits <= 20.0
    with pytest.raises(ValueError):
        mary_feedback_capacity(2**20)


MARY_BELLMAN_MS = [*range(1, 1025), 2**20 - 1]


def _dinkelbach_oracle(m):
    """(gamma, delta, rate) of the scalar Dinkelbach loop, an oracle for the m-ary rate.

    Dinkelbach's parametric step (Management Science 13(7), 1967): from
    gamma = delta = 1/2, take the stationary point in delta and then the
    maximizer in gamma of N - lambda D, with lambda the current rate, and
    stop at the first step that does not raise the rate.
    """
    ln2 = math.log(2.0)
    g = d = 0.5
    rate = _mary_rate(m, g, d)
    while True:
        d_new = 0.5 - 0.5 * math.tanh(ln2 * (rate - _mary_lead(m, g)) / (1.0 + g))
        k = math.log2(m) - 2.0 + (rate - binary_entropy(d_new)) / d_new
        g_new = max(0.0, -math.tanh(0.5 * ln2 * k))
        rate_new = _mary_rate(m, g_new, d_new)
        if rate_new <= rate:
            return g, d, rate
        g, d, rate = g_new, d_new, rate_new


def test_mary_capacity_equals_the_dinkelbach_oracle():
    for m in MARY_BELLMAN_MS:
        got = mary_feedback_capacity(m).capacity_bits
        want = _dinkelbach_oracle(m)[2]
        assert abs(got - want) <= 2e-15, m
        assert f"{got:.6f}" == f"{want:.6f}", m


def test_mary_solution_solves_the_bellman_equation():
    # h(0) = 0 and h(m) = log2 u: lambda + h(s) is the stage maximum at both classes
    grid = np.linspace(0.0, 1.0, 10001)
    h_grid = _h2(0.5 * (1.0 + grid))

    def below_m(m, gamma, h_half, log2u):
        """lead(gamma) + (1 + gamma) log2(u) / 2 on arrays, h_half = h((1 + gamma) / 2)."""
        lead = 0.5 * (1.0 - gamma) * math.log2(m) + h_half - (1.0 - gamma)
        return lead + 0.5 * (1.0 + gamma) * log2u

    for m in MARY_BELLMAN_MS:
        sol = mary_feedback_capacity(m)
        lam, g, d = sol.capacity_bits, sol.gamma_star, sol.delta_star
        u = 1.0 / d - 1.0
        log2u = math.log2(u)
        # state m: lambda + log2 u = max_delta [h(delta) + (1 - delta) log2 u] = log2(1 + u)
        assert abs(lam + log2u - math.log2(1.0 + u)) <= 1e-14, m
        assert abs(binary_entropy(d) + (1.0 - d) * log2u - lam - log2u) <= 1e-14, m
        # below m: lambda is the stage value at gamma*, and no grid point beats it
        at = below_m(m, np.array([g]), _h2([0.5 * (1.0 + g)]), log2u)[0]
        assert abs(at - lam) <= 1e-14, m
        assert below_m(m, grid, h_grid, log2u).max() <= at + 1e-15, m
        # the face gamma = 0 and its KKT condition 4u <= m
        if m >= 4:
            assert g == 0.0 and 4.0 * u <= m, m
        else:
            assert g > 0.0 and u > m / 4.0, m


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_feedback_solver_lies_in_the_bellman_horizon_bracket(m):
    # T^n h = n lambda + h and T(h + c) = T h + c, so from h - max h <= 0 <= h - min h:
    # n lambda + h(s0) - max h <= V_n(s0) <= n lambda + h(s0) - min h
    sol = mary_feedback_capacity(m)
    h = {0: 0.0, m: math.log2(1.0 / sol.delta_star - 1.0)}
    for n in (1, 2, 3, 4, 100, 1000):
        for s0 in (0, m):
            _, _, report = _feedback_stages(MaryPost(m), n, s0, OptimizerConfig())
            assert report.lower_bits >= n * sol.capacity_bits + h[s0] - max(h.values()) - 1e-9
            assert report.upper_bits <= n * sol.capacity_bits + h[s0] - min(h.values()) + 1e-9


def test_mary_objective_on_axes_equals_meshgrid():
    rng = np.random.default_rng(5)
    g = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 40)])
    d = np.concatenate([[1.0, 0.0], rng.uniform(0.0, 1.0, 30)])
    for m in (1, 3, 1024):
        grid = oracle_rate(m, *np.meshgrid(g, d, indexing="ij"))
        axes = oracle_rate(m, g[:, None], d)
        assert axes.shape == grid.shape
        assert np.array_equal(axes, grid)


def test_binary_entropy_terms_exact_and_warning_free_at_endpoints():
    axis = np.linspace(0.0, 1.0, 11)
    with np.errstate(all="raise"):
        h = _h2(axis)
        ends = _h2(np.array([0.0, 1.0]))
        scalar_ends = (_h2(0.0), _h2(1.0))
        rates = oracle_rate(4, axis[:, None], axis)
    assert np.isfinite(h).all() and np.isfinite(rates).all()
    assert ends.tolist() == [0.0, 0.0] and scalar_ends == (0.0, 0.0)
    assert not np.signbit(ends).any() and not np.signbit(scalar_ends).any()  # +0.0, not -0.0
    assert h[0] == 0.0 and h[-1] == 0.0 and h[5] == approx(1.0, abs=1e-15)
    assert h == approx([binary_entropy(p) for p in axis], abs=1e-15)
    # gamma = 1 or delta = 0 stops the chain at state m, whose reset carries nothing
    assert rates[-1, 0] == 0.0 and rates[0, 0] == 0.0


def test_mary_objective_equals_stationary_rate():
    # independent route: average the per-state one-step information under
    # the stationary law of the induced chain
    for m, gamma, delta in [(2, 0.4, 0.6), (4, 0.55, 0.45), (8, 0.7, 0.3)]:
        pi = mary_stationary_distribution(m, gamma, delta)
        below = entropy(np.array([(1 - gamma) / (2 * m)] * m + [(1 + gamma) / 2])) - (1 - gamma)
        at_m = binary_entropy(delta)
        want = pi[:m].sum() * below + pi[m] * at_m
        assert oracle_rate(m, gamma, delta) == approx(want, abs=1e-12)


def test_mary_collapsed_entropy_identity():
    for m in (2, 4, 8):
        for gamma in (0.1, 0.5, 0.9):
            full = entropy(np.array([(1 - gamma) / (2 * m)] * m + [(1 + gamma) / 2]))
            collapsed = 0.5 * (1 - gamma) * math.log2(m) + binary_entropy((1 + gamma) / 2)
            assert full == approx(collapsed, abs=1e-12)


def test_scheme_rate():
    assert mary_scheme_rate(1) == 0.0
    assert mary_scheme_rate(8) == approx(1.0)
    assert mary_scheme_rate(1024) == approx(10 / 3, abs=1e-12)


def test_scheme_rate_below_feedback_capacity():
    for exp in range(0, 11, 2):
        m = 2**exp
        assert mary_feedback_capacity(m).capacity_bits >= mary_scheme_rate(m) - 1e-9


def test_iid_state_example():
    no_fb, fb = iid_state_example()
    assert no_fb == approx(0.3112781244591328, abs=1e-12)
    assert fb == approx(-math.log2(0.8), abs=1e-12)
    assert fb == approx(post_alpha_capacity(0.5).capacity_bits, abs=1e-12)
    assert fb > no_fb


def test_closed_form_solution_looks_up_each_family():
    assert closed_form_solution(PostAlpha(0.5)) == post_alpha_capacity(0.5)
    assert closed_form_solution(PostAB(0.9, 0.7)) == binary_dmc_capacity(0.9, 0.7)
    assert closed_form_solution(MaryPost(4)).capacity_bits == mary_feedback_capacity(4).capacity_bits
    assert closed_form_solution(PostAB(0.2, 0.3)).relabeled
    with pytest.raises(SingularChannelError):
        closed_form_solution(PostAB(0.2, 0.3), markov=True)
    with pytest.raises(TypeError):
        closed_form_solution(MaryPost(4), markov=True)
    with pytest.raises(TypeError):
        closed_form_solution(CustomPost(([[1.0, 0.0], [0.0, 1.0]],) * 2))
