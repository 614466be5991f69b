"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The grid searches in
the oracle-equivalence criterion enumerate more than 10^8 candidate
inputs; the whole module finishes in a few minutes.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from pytest import approx

from postcap import (
    MaryPost,
    OptimizerConfig,
    PostAB,
    PostAlpha,
    binary_dmc_capacity,
    beta_intervals_ab,
    build_sequence_kernel,
    compose_causal,
    concavity_probe,
    directed_information,
    inequality_sweep,
    kkt_check,
    mary_feedback_capacity,
    mary_scheme_rate,
    maximize_di_feedback,
    maximize_mi_nofeedback,
    output_markov_pmf,
    post_alpha_capacity,
    random_policy,
    recursive_input_ab,
    recursive_input_alpha,
    upper_bound,
)
from postcap.construction import _input_levels
from postcap.probability import SequencePmf

from dense_reference import factorize_causal, open_loop_kernel, validate_causal

TIGHT = OptimizerConfig(max_iterations=50000, kkt_tolerance=1e-7)

TABLE_FEEDBACK = [
    0.7595, 0.8325, 1.0000, 1.2599, 1.5366, 1.8260,
    2.1252, 2.4319, 2.7444, 3.0614, 3.3818,
]
TABLE_SCHEME = [
    0.0000, 0.3333, 0.6667, 1.0000, 1.3333, 1.6667,
    2.0000, 2.3333, 2.6667, 3.0000, 3.3333,
]
TABLE_UPPER = {1: 0.7918, 2: 0.8568, 4: 0.9803, 8: 1.1711, 16: 1.3865}


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def test_criterion_1_closed_form_and_alpha_identity():
    with criterion("criterion 1 (closed form + alpha/ab identity)"):
        start = time.monotonic()
        assert post_alpha_capacity(0.5).capacity_bits == approx(0.321928, abs=1e-6)
        for alpha in np.linspace(0.01, 0.99, 99):
            gap = abs(
                binary_dmc_capacity(1.0, 1.0 - alpha).capacity_bits
                - post_alpha_capacity(alpha).capacity_bits
            )
            assert gap <= 1e-10
        assert time.monotonic() - start < 1.0


def test_criterion_2_feedback_optimizer_with_certificate():
    with criterion("criterion 2 (feedback optimizer + certificate)"):
        start = time.monotonic()
        for n in (1, 2, 3):
            _, value, report = maximize_di_feedback(PostAlpha(0.5), n, 0, TIGHT)
            assert value / n == approx(0.321928, abs=1e-5)
            assert report.passed
            assert report.upper_bits - value <= 1e-5
        assert time.monotonic() - start < 30.0


def _check_construction_family(raw_chain, spec, delta, capacity, n_deep, di_alphas=True):
    """Validity, output law and attained value for one parameter point."""
    for s0 in (0, 1):
        chain = raw_chain(n_deep)
        for n, pair in enumerate(chain, start=1):
            raw = pair[s0]
            assert raw.min() >= -1e-10
            assert abs(raw.sum() - 1.0) <= 1e-9
            chan = build_sequence_kernel(spec, n, s0).kernel.values
            induced = chan @ raw
            target = output_markov_pmf(delta, n, s0).values
            assert np.abs(induced - target).max() <= 1e-10
    # attained directed information at short horizons
    for n in (2, 4):
        chan = build_sequence_kernel(spec, n, 0).kernel
        raw = raw_chain(n)[-1][0]
        pmf = SequencePmf(2, n, np.maximum(raw, 0.0) / raw.sum())
        di = directed_information(open_loop_kernel(pmf, 2), chan)
        assert abs(di - n * capacity) <= 1e-6


def test_criterion_3_open_loop_construction_matches_feedback():
    with criterion("criterion 3 (open-loop construction = feedback optimum)"):
        for alpha in np.linspace(0.1, 0.9, 9):
            sol = post_alpha_capacity(alpha)
            _check_construction_family(
                lambda n, a=alpha: list(_input_levels(PostAlpha(a), n)),
                PostAlpha(alpha),
                sol.output_markov_transition,
                sol.capacity_bits,
                n_deep=10,
            )
        # a subset is also pinned against the numerical feedback optimum
        for alpha in (0.1, 0.5, 0.9):
            n = 4
            _, fb_value, report = maximize_di_feedback(PostAlpha(alpha), n, 0, TIGHT)
            assert report.passed
            raw = list(_input_levels(PostAlpha(alpha), n))[-1][0]
            pmf = SequencePmf(2, n, np.maximum(raw, 0.0) / raw.sum())
            chan = build_sequence_kernel(PostAlpha(alpha), n, 0).kernel
            di = directed_information(open_loop_kernel(pmf, 2), chan)
            assert abs(di - fb_value) <= 1e-6

        axis = np.linspace(0.05, 0.95, 10)
        tested = 0
        for a in axis:
            for b in axis:
                if a + b - 1.0 <= 1e-9:
                    continue
                sol = binary_dmc_capacity(a, b)
                _check_construction_family(
                    lambda n, aa=a, bb=b: list(_input_levels(PostAB(aa, bb), n)),
                    PostAB(a, b),
                    sol.output_markov_transition,
                    sol.capacity_bits,
                    n_deep=10,
                )
                tested += 1
        assert tested == 45
        for a, b in ((0.55, 0.95), (0.75, 0.75), (0.95, 0.35)):
            n = 4
            _, fb_value, report = maximize_di_feedback(PostAB(a, b), n, 0, TIGHT)
            assert report.passed
            raw = list(_input_levels(PostAB(a, b), n))[-1][0]
            pmf = SequencePmf(2, n, np.maximum(raw, 0.0) / raw.sum())
            chan = build_sequence_kernel(PostAB(a, b), n, 0).kernel
            di = directed_information(open_loop_kernel(pmf, 2), chan)
            assert abs(di - fb_value) <= 1e-6


def test_criterion_4_feedback_capacity_column():
    with criterion("criterion 4 (feedback capacity column)"):
        start = time.monotonic()
        for row, want in enumerate(TABLE_FEEDBACK):
            got = mary_feedback_capacity(2**row).capacity_bits
            assert got == approx(want, abs=5e-4), f"m=2^{row}"
        assert time.monotonic() - start < 10.0


def test_criterion_5_upper_bound_column_desk_scale():
    with criterion("criterion 5 (upper-bound column, m <= 16)"):
        start = time.monotonic()
        cfg = OptimizerConfig(max_iterations=200000, kkt_tolerance=1e-7)
        values = {}
        for m, want in TABLE_UPPER.items():
            values[m] = upper_bound(MaryPost(m), 6, cfg)
            assert values[m][0] == approx(want, abs=1e-3), f"m={m}"
            assert values[m][1] <= cfg.kkt_tolerance, f"m={m}"
        assert time.monotonic() - start < 300.0
        global _UPPER_M4
        _UPPER_M4 = values[4]


# (per-use upper bound, residual in nats) of MaryPost(4) at n = 6
_UPPER_M4 = None


def test_criterion_6_feedback_strictly_helps_at_m4():
    with criterion("criterion 6 (feedback > no-feedback at m=4)"):
        if _UPPER_M4 is None:
            cfg = OptimizerConfig(max_iterations=200000, kkt_tolerance=1e-7)
            ub, residual = upper_bound(MaryPost(4), 6, cfg)
        else:
            ub, residual = _UPPER_M4
        fb = mary_feedback_capacity(4).capacity_bits
        assert ub == approx(0.9803, abs=1e-3)
        assert fb == approx(1.0000, abs=5e-4)
        # Arimoto's bound: the 6-letter open-loop optimum per use is at
        # most ub + residual / (6 ln 2) bits, whether or not the solve certified
        assert ub + residual / (6 * math.log(2.0)) < fb


def test_criterion_7_scheme_rate_column():
    with criterion("criterion 7 (scheme-rate column)"):
        for row, want in enumerate(TABLE_SCHEME):
            m = 2**row
            rate = mary_scheme_rate(m)
            assert abs(rate - want) <= 5e-5
            assert mary_feedback_capacity(m).capacity_bits >= rate - 1e-9


def test_criterion_8_property_suites():
    with criterion("criterion 8 (property suites)"):
        # midpoint concavity of the objective in the input kernel
        rng = np.random.default_rng(2024)
        chan = build_sequence_kernel(PostAlpha(0.4), 3, 0).kernel
        for _ in range(100):
            p1 = compose_causal(random_policy(2, 2, 3, 1, rng))
            p2 = compose_causal(random_policy(2, 2, 3, 1, rng))
            lhs, rhs = concavity_probe(chan, p1, p2, 0.5)
            assert lhs >= rhs - 1e-12

        # supporting inequalities on parameter grids
        report = inequality_sweep(200)
        assert report.passed
        alphas = np.linspace(0.0, 1.0, 1001)[1:-1]
        pa1 = alphas ** (1.0 / (1.0 - alphas))
        paa = alphas ** (alphas / (1.0 - alphas))
        assert (pa1 <= 1.0 + 1e-12).all()
        assert (4.0 * paa * pa1 <= 1.0 + 1e-12).all()

        # causal-kernel polyhedron: compose, validate, factorize round trips
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a = int(rng.integers(2, 4))
            b = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            d = int(rng.integers(0, 2))
            kernel = compose_causal(random_policy(a, b, n, d, rng))
            assert validate_causal(kernel).passed
            back = compose_causal(factorize_causal(kernel))
            assert np.abs(back.values - kernel.values).max() <= 1e-10

        # multiplier witness exists across the parameter square
        axis = np.linspace(0.0, 1.0, 202)[1:-1]
        found = 0
        for a in axis:
            for b in axis:
                if a + b - 1.0 <= 1e-9:
                    continue
                assert beta_intervals_ab(a, b).nonempty_witness is not None, (a, b)
                found += 1
        assert found > 19000

        # constructed inputs define one consistent process out to n = 10
        for build in (
            lambda n, s0: recursive_input_alpha(0.3, n, s0),
            lambda n, s0: recursive_input_alpha(0.7, n, s0),
            lambda n, s0: recursive_input_ab(0.9, 0.7, n, s0),
        ):
            for s0 in (0, 1):
                deep = build(10, s0)
                for i in range(1, 10):
                    gap = np.abs(deep.prefix_marginal(i).values - build(i, s0).values).max()
                    assert gap <= 1e-12

        # the per-use upper bound tightens as the horizon grows
        cfg = OptimizerConfig(max_iterations=100000, kkt_tolerance=1e-8)
        for spec in (PostAlpha(0.5), MaryPost(1)):
            values = [upper_bound(spec, n, cfg)[0] for n in range(2, 7)]
            for shorter, longer in zip(values, values[1:]):
                assert longer <= shorter + 1e-6


# -- criterion 9: oracle equivalence on small instances -------------------------


def _mi_simplex_grid_max(chan, steps, block=64):
    """Exhaustive open-loop search: every pmf on the 1/steps grid.

    p = (k1, k2, k3, k4) / steps with k4 = steps - k1 - k2 - k3, so within
    one k1 slice both sum_x p(x) cst(x) and each q(y) are a k2 term plus a
    k3 term.  Blocks of k2 rows are broadcast against the k3 columns the
    block's first row reaches, and the block's points past the simplex
    (k2 + k3 > steps - k1, in its last columns) are masked out.
    """
    pos = chan > 0
    cst = np.where(pos, chan * np.log2(chan, where=pos, out=np.zeros_like(chan)), 0.0).sum(axis=0)
    # row 0 weighs the inputs for the cst term, row 1 + y for q(y)
    weights = np.vstack([cst, chan]) / steps
    counts = np.arange(steps + 1.0)
    q, term = np.empty((block, steps + 1)), np.empty((block, steps + 1))
    best = -math.inf
    for k1 in range(steps + 1):
        r1 = steps - k1
        base = k1 * weights[:, 0] + r1 * weights[:, 3]
        for lo in range(0, r1 + 1, block):
            k2 = counts[lo : min(lo + block, r1 + 1)]
            k3 = counts[: r1 + 1 - lo]
            rows = base[:, None] + np.outer(weights[:, 1] - weights[:, 3], k2)
            cols = np.outer(weights[:, 2] - weights[:, 3], k3)
            total = np.add.outer(rows[0], cols[0])
            qv, tv = q[: len(k2), : len(k3)], term[: len(k2), : len(k3)]
            for r, c in zip(rows[1:], cols[1:]):
                # q may round below 0 where it is 0; 1e-300 log2 1e-300 is 0 here
                np.maximum(np.add.outer(r, c, out=qv), 1e-300, out=qv)
                np.log2(qv, out=tv)
                tv *= qv
                total -= tv
            tail = total[:, -len(k2) :]
            tail[k2[:, None] + k3[-len(k2) :] > r1] = -math.inf
            best = max(best, float(total.max()))
    return best


def _di_policy_batch(chan, pi1, pi2):
    """Directed information for a batch of two-step policies.

    pi1: (B, 2) law of x_1; pi2: (B, 2, 2, 2) law of x_2 indexed
    [batch, x1, y1, x2].  chan is the 4x4 two-step channel matrix.
    """
    pos = chan > 0
    log_chan = np.where(pos, np.log2(chan, where=pos, out=np.zeros_like(chan)), 0.0)
    kernels = (pi1[:, :, None, None] * pi2).transpose(0, 1, 3, 2).reshape(-1, 4, 2)
    joint = chan[None, :, :] * kernels[:, :, [0, 0, 1, 1]].transpose(0, 2, 1)
    py = joint.sum(axis=2)
    mask = py > 0
    log_py = np.where(mask, np.log2(py, where=mask, out=np.zeros_like(py)), 0.0)
    return (joint * (log_chan[None] - log_py[:, :, None])).sum(axis=(1, 2))


def _feedback_class_grid_max(chan, steps):
    """Exhaustive search over per-state policies (two free coordinates)."""
    grid = np.linspace(0.0, 1.0, steps + 1)
    best = -math.inf
    v = grid
    batch = v.size
    for u in grid:
        pi1 = np.tile([1.0 - u, u], (batch, 1))
        pi2 = np.empty((batch, 2, 2, 2))
        pi2[:, :, 0, 1] = u
        pi2[:, :, 1, 1] = v[:, None]
        pi2[..., 0] = 1.0 - pi2[..., 1]
        best = max(best, float(_di_policy_batch(chan, pi1, pi2).max()))
    return best


def _feedback_box_grid_max(chan, points=17, zooms=4):
    """Coarse box grid over all five policy coordinates, with local zoom."""

    def evaluate(axes):
        # one block of points^4 policies per value of the first coordinate,
        # so the (B, 4, 4) temporaries hold points^4 entries, not points^5
        vals = np.empty([len(axis) for axis in axes])
        mesh = np.meshgrid(*axes[1:], indexing="ij")
        flat = [m.ravel() for m in mesh]
        pi2 = np.empty((flat[0].size, 2, 2, 2))
        pi2[:, 0, 0, 1] = flat[0]
        pi2[:, 0, 1, 1] = flat[1]
        pi2[:, 1, 0, 1] = flat[2]
        pi2[:, 1, 1, 1] = flat[3]
        pi2[..., 0] = 1.0 - pi2[..., 1]
        for i, first in enumerate(axes[0]):
            pi1 = np.tile([1.0 - first, first], (len(pi2), 1))
            vals[i] = _di_policy_batch(chan, pi1, pi2).reshape(vals.shape[1:])
        return vals

    axes = [np.linspace(0.0, 1.0, points)] * 5
    vals = evaluate(axes)
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    centers = [axes[i][idx[i]] for i in range(5)]
    width = 1.0 / (points - 1)
    best = float(vals.max())
    for _ in range(zooms):
        width /= (points - 1) / 2
        axes = [
            np.clip(np.linspace(c - (points - 1) / 2 * width, c + (points - 1) / 2 * width, points), 0, 1)
            for c in centers
        ]
        vals = evaluate(axes)
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        centers = [axes[i][idx[i]] for i in range(5)]
        best = max(best, float(vals.max()))
    return best


def test_criterion_9_oracle_equivalence_small_instances():
    with criterion("criterion 9 (optimizers vs exhaustive grids)"):
        # one step: a 1001-point grid over p(x=1) is the whole polyhedron
        for spec in (PostAlpha(0.5), PostAB(0.9, 0.9)):
            chan = build_sequence_kernel(spec, 1, 0).kernel
            best = -math.inf
            for p1 in np.linspace(0.0, 1.0, 1001):
                kin = open_loop_kernel(SequencePmf(2, 1, np.array([1.0 - p1, p1])), 2)
                best = max(best, directed_information(kin, chan))
            _, fb_value, _ = maximize_di_feedback(spec, 1, 0, TIGHT)
            _, ol_value, _ = maximize_mi_nofeedback(spec, 1, 0, TIGHT)
            assert abs(fb_value - best) <= 1e-4
            assert abs(ol_value - best) <= 1e-4

        for spec in (PostAlpha(0.5), PostAB(0.9, 0.7)):
            chan = build_sequence_kernel(spec, 2, 0).kernel
            # open-loop: exhaustive 1e-3 grid over the input simplex
            grid_ol = _mi_simplex_grid_max(chan.values, 1000)
            _, ol_value, _ = maximize_mi_nofeedback(spec, 2, 0, TIGHT)
            assert abs(ol_value - grid_ol) <= 1e-4
            # feedback: exhaustive 1e-3 grid over per-state policies (the
            # class attaining the optimum, certified above), plus a zoomed
            # box grid over all five free policy coordinates
            grid_fb = _feedback_class_grid_max(chan.values, 1000)
            box_fb = _feedback_box_grid_max(chan.values)
            _, fb_value, report = maximize_di_feedback(spec, 2, 0, TIGHT)
            assert report.passed
            assert abs(fb_value - grid_fb) <= 1e-4
            assert abs(fb_value - box_fb) <= 1e-4
