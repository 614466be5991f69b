"""The benchmark's workloads: inputs made from the seed, the operations a
worker runs, and the check of every output against its reference.

Each operation is (name, fn); fn(pc) calls postcap through the module
attributes in pc (so traced wrappers apply) and returns an outcome dict:
ok (the output met its reference check), certified (True/False for a
solve, None otherwise) and reason.

Channels are drawn over the whole family: PostAlpha(alpha) with alpha
in [0.1, 0.9], and PostAB(a, b) with a, b in [0.05, 0.95], a + b - 1 at
least 0.05, half of them with a > b.  Each range is cut into k equal
strata and each stratum gets two points, at offsets u and 1 - u of one
seeded u.  Solver cost grows smoothly within a stratum, so the two points
of a stratum cost about twice its midpoint and every seed gets a pass of
about the same total cost while the channels change with the seed.

Below a + b - 1 = 0.2 the channels converge slowly: at n = 8 the feedback
solver stalls before its certificate passes (543-1617 iterations, 9-29 s
a solve on two x86 cores) and open_loop_match at n = 10 misses its mass
tolerance.  So the n = 8 solves and open_loop_match draw a + b - 1 from
[0.2, 0.9].  The strip below is solved at n = 3, where it costs under
1.5 s a solve and may end uncertified (counted in failed_frac), and goes
through the recursions and interval witnesses of the construction
workload.
"""

import contextlib
import io

import numpy as np

# Per-use feedback optimum of MaryPost(m) at horizon n from state s0, bits.
MARY_FEEDBACK_REFERENCE = {
    (2, 2, 0): 0.7297158093,
    (2, 2, 2): 0.9036774610,
    (2, 3, 0): 0.7618007396,
    (2, 3, 2): 0.8812853966,
    (3, 2, 0): 0.8639602273,
    (3, 2, 3): 0.9534452978,
    (3, 3, 0): 0.8800816454,
    (3, 3, 3): 0.9400596541,
    (4, 2, 0): 1.0,
    (4, 2, 4): 1.0,
}
MARY_FEEDBACK_TOL = 1e-6
# MaryPost(m) whose feedback solves use their whole budget without a
# passing certificate at the seed commit.
UNCERTIFIED_M = (4,)

# Feedback capacity column of Table 1 (m = 1, 2, 4, ..., 1024), bits.
TABLE1_FEEDBACK = {
    1: 0.7595, 2: 0.8325, 4: 1.0000, 8: 1.2599, 16: 1.5366, 32: 1.8260,
    64: 2.1252, 128: 2.4319, 256: 2.7444, 512: 3.0614, 1024: 3.3818,
}
TABLE1_FEEDBACK_TOL = 5e-4
TABLE1_UPPER_BOUND_ROWS = (1, 2, 4)


ALPHA_RANGE = (0.1, 0.9)
# a + b - 1 of the channels whose solves must certify at n = 8 and whose
# open-loop match must hold at n = 10, and of the slowly converging strip.
SUM_RANGE = (0.2, 0.9)
SLOW_SUM_RANGE = (0.05, 0.2)
AB_EDGE = 0.05  # a and b lie in [AB_EDGE, 1 - AB_EDGE]


def stratified(rng, lo, hi, k):
    """2k points in [lo, hi]: two in each of k equal strata, at offsets u and 1 - u."""
    width = (hi - lo) / k
    u = rng.random()
    return [lo + (i + v) * width for i in range(k) for v in (u, 1.0 - u)]


def ab_pairs(rng, sum_range, k):
    """2k PostAB (a, b) with a + b - 1 stratified over sum_range.

    a - b = t * (1 - 2 AB_EDGE - s) with t stratified over [-1, 1].  The
    two points of a stratum of s get t from mirror strata of t, so one has
    a > b and the other a < b; which pair of t strata goes with which
    stratum of s turns with the seed.
    """
    sums = stratified(rng, *sum_range, k)
    ts = stratified(rng, -1.0, 1.0, k)
    turn = int(rng.integers(k))
    signed = []
    for i in range(k):
        j = (i + turn) % k
        signed += [ts[2 * j], ts[2 * (k - 1 - j) + 1]]
    pairs = []
    for s, t in zip(sums, signed):
        d = t * (1.0 - 2.0 * AB_EDGE - s)
        pairs.append(((1.0 + s + d) / 2.0, (1.0 + s - d) / 2.0))
    return pairs


def _outcome(ok, reason, certified=None):
    return {"ok": bool(ok), "reason": reason, "certified": certified}


def _table1(pc):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pc.cli.main(["table1", "--check"])
    rows = {int(line.split(",")[0]): line.split(",") for line in out.getvalue().splitlines()[1:]}
    missing = [m for m in TABLE1_UPPER_BOUND_ROWS if not rows.get(m, ["", ""])[1]]
    if code != 0:
        return _outcome(False, f"exit code {code}: {err.getvalue().strip()}")
    return _outcome(not missing and len(rows) == 11, f"rows {sorted(rows)}, no upper bound for m in {missing}")


def _mary_solve(m, n, s0, solver_seed):
    def op(pc):
        cfg = pc.optimize.OptimizerConfig(
            max_iterations=5000, kkt_tolerance=1e-7, initialization="random", seed=solver_seed
        )
        _, value, report = pc.optimize.maximize_di_feedback(pc.channels.MaryPost(m), n, s0, cfg)
        gap = abs(value / n - MARY_FEEDBACK_REFERENCE[(m, n, s0)])
        if gap > MARY_FEEDBACK_TOL:
            reason = f"value/n off the reference by {gap:.3e}"
        else:
            reason = f"certificate not passed (support violation {report.max_violation_support:.2e})"
        # Only the MaryPost(4) solves may end uncertified and still count as
        # correct: that is the known defect (ROADMAP item 3), reported in
        # failed_frac.  A lost certificate anywhere else is a wrong output.
        ok = gap <= MARY_FEEDBACK_TOL and (report.passed or m in UNCERTIFIED_M)
        return _outcome(ok, reason, certified=report.passed)

    return op


def mary_ops(seed):
    rng = np.random.default_rng([seed, 0])
    ops = [("table1", _table1)]
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        for s0 in (0, m):
            ops.append((f"feedback.m{m}.n{n}.s{s0}", _mary_solve(m, n, s0, int(rng.integers(2**31)))))
    return ops


def _binary_spec(pc, params):
    return pc.channels.PostAlpha(params) if isinstance(params, float) else pc.channels.PostAB(*params)


def _closed_form(pc, spec):
    if isinstance(spec, pc.channels.PostAlpha):
        return pc.closed_form.post_alpha_capacity(spec.alpha)
    return pc.closed_form.binary_dmc_capacity(spec.a, spec.b)


def _label(params):
    if isinstance(params, float):
        return f"alpha{params:.4f}"
    return f"ab{params[0]:.4f}_{params[1]:.4f}"


def _binary_solve(params, s0, n, may_stall=False):
    """Feedback solve checked against the closed form and its certificate.

    With may_stall the solve may end uncertified (the slowly converging
    strip); it still counts in failed_frac, but not as a wrong output.
    """

    def op(pc):
        spec = _binary_spec(pc, params)
        cfg = pc.optimize.OptimizerConfig(max_iterations=20000, kkt_tolerance=1e-7)
        kernel, value, report = pc.optimize.maximize_di_feedback(spec, n, s0, cfg)
        closed = _closed_form(pc, spec).capacity_bits
        recheck = pc.optimize.kkt_check(kernel, spec, n, s0, tol=1e-7)
        chan = pc.channels.build_sequence_kernel(spec, n, s0, storage="dense").kernel
        di = pc.directed_info.directed_information(kernel, chan)
        problems = []
        if not report.passed and not may_stall:
            problems.append("certificate not passed")
        if recheck.passed != report.passed:
            problems.append(f"kkt_check of the returned kernel gives passed={recheck.passed}")
        if abs(value / n - closed) > 1e-4:
            problems.append(f"value/n off the closed form by {abs(value / n - closed):.3e}")
        if abs(di - value) > 1e-9:
            problems.append(f"directed information {di!r} differs from the solver value {value!r}")
        reason = "; ".join(problems)
        if not problems and not report.passed:
            reason = f"certificate not passed (polyhedron gap {report.polyhedron_gap:.2e})"
        return _outcome(not problems, reason, certified=report.passed)

    return op


def feedback_binary_ops(seed):
    """n = 8 solves over alpha and a + b - 1 >= 0.2, the strip below at n = 3.

    The two points of each stratum start from the two states, so a pass
    covers both start states at half the cost of solving every channel
    from each.
    """
    rng = np.random.default_rng([seed, 1])
    certified = stratified(rng, *ALPHA_RANGE, 4) + ab_pairs(rng, SUM_RANGE, 4)
    slow = ab_pairs(rng, SLOW_SUM_RANGE, 1)
    ops = [
        (f"feedback.n8.{_label(p)}.s{i % 2}", _binary_solve(p, i % 2, 8))
        for i, p in enumerate(certified)
    ]
    ops.extend(
        (f"feedback.n3.{_label(p)}.s{i % 2}", _binary_solve(p, i % 2, 3, may_stall=True))
        for i, p in enumerate(slow)
    )
    return ops


def _open_loop_match(params, s0, n=10):
    def op(pc):
        report = pc.optimize.open_loop_match(_binary_spec(pc, params), n, s0)
        return _outcome(
            report.passed,
            f"min_entry {report.min_entry:.3e}, total {report.total!r}, di_gap {report.di_gap:.3e}",
        )

    return op


def _pmf_problems(values, prefixes):
    """Nonnegative entries, unit mass, and agreement of each prefix marginal."""
    problems = []
    if values.min() < 0.0:
        problems.append(f"negative entry {values.min():.3e}")
    if abs(values.sum() - 1.0) > 1e-9:
        problems.append(f"mass {values.sum()!r}")
    for i, marginal, shorter in prefixes:
        gap = float(np.abs(marginal - shorter).max())
        if gap > 1e-12:
            problems.append(f"prefix {i} differs by {gap:.3e}")
    return problems


def _recursive_input(params, s0, n=20):
    def op(pc):
        if isinstance(params, float):
            build = lambda i: pc.construction.recursive_input_alpha(params, i, s0)
        else:
            build = lambda i: pc.construction.recursive_input_ab(*params, i, s0)
        pmf = build(n)
        prefixes = [(i, pmf.prefix_marginal(i).values, build(i).values) for i in range(1, n)]
        problems = _pmf_problems(pmf.values, prefixes)
        return _outcome(not problems, "; ".join(problems))

    return op


def _output_markov(params, s0, n=20):
    def op(pc):
        delta = _closed_form(pc, _binary_spec(pc, params)).output_markov_transition
        pmf = pc.construction.output_markov_pmf(delta, n, s0)
        shorter = pc.construction.output_markov_pmf(delta, n - 1, s0)
        problems = _pmf_problems(pmf.values, [(n - 1, pmf.prefix_marginal(n - 1).values, shorter.values)])
        return _outcome(not problems, "; ".join(problems))

    return op


def _beta_witness(pair, n=20):
    def op(pc):
        witness = pc.construction.beta_intervals_ab(*pair).nonempty_witness
        if witness is None:
            return _outcome(False, "no witness multiplier")
        holds = pc.construction.induction_step_check(pc.channels.PostAB(*pair), witness, n)
        return _outcome(holds, f"witness {witness!r} fails the induction step up to n = {n}")

    return op


def _inequality_sweep(pc):
    report = pc.construction.inequality_sweep(1000)
    failing = [c.name for c in report.checks if not c.passed]
    return _outcome(report.passed, f"failing checks {failing}")


def _dmc_grid(pc, points=201):
    grid = np.linspace(0.0, 1.0, points)
    caps = np.array([[pc.closed_form.binary_dmc_capacity(a, b).capacity_bits for b in grid] for a in grid])
    problems = []
    if not np.isfinite(caps).all() or caps.min() < 0.0 or caps.max() > 1.0 + 1e-12:
        problems.append(f"capacity outside [0, 1]: {caps.min()!r} .. {caps.max()!r}")
    # C(a, b) = C(b, a) (swap both labels) = C(1 - a, 1 - b) (swap output labels).
    if np.abs(caps - caps.T).max() > 1e-12:
        problems.append(f"C(a,b) != C(b,a) by {np.abs(caps - caps.T).max():.3e}")
    if np.abs(caps - caps[::-1, ::-1]).max() > 1e-9:
        problems.append(f"C(a,b) != C(1-a,1-b) by {np.abs(caps - caps[::-1, ::-1]).max():.3e}")
    return _outcome(not problems, "; ".join(problems))


def _mary_closed_form(pc, max_m=1024):
    caps = [pc.closed_form.mary_feedback_capacity(m).capacity_bits for m in range(1, max_m + 1)]
    problems = [
        f"m={m}: {caps[m - 1]:.6f} vs {ref}"
        for m, ref in TABLE1_FEEDBACK.items()
        if abs(caps[m - 1] - ref) > TABLE1_FEEDBACK_TOL
    ]
    if min(np.diff(caps)) <= 0.0:
        problems.append("capacity does not increase with m")
    return _outcome(not problems, "; ".join(problems))


def construction_ops(seed):
    rng = np.random.default_rng([seed, 1])
    matched = stratified(rng, *ALPHA_RANGE, 1) + ab_pairs(rng, SUM_RANGE, 1)
    slow = ab_pairs(rng, SLOW_SUM_RANGE, 1)
    ops = []
    for params in matched + slow:
        for s0 in (0, 1):
            label = f"{_label(params)}.s{s0}"
            if params not in slow:
                ops.append((f"open_loop_match.{label}", _open_loop_match(params, s0)))
            ops.append((f"recursive_input.{label}", _recursive_input(params, s0)))
            ops.append((f"output_markov_pmf.{label}", _output_markov(params, s0)))
    ops.extend((f"beta_witness.{_label(p)}", _beta_witness(p)) for p in matched + slow if isinstance(p, tuple))
    ops.append(("inequality_sweep", _inequality_sweep))
    ops.append(("binary_dmc_capacity.grid201", _dmc_grid))
    ops.append(("mary_feedback_capacity.m1-1024", _mary_closed_form))
    return ops


OPS = {"mary": mary_ops, "feedback_binary": feedback_binary_ops, "construction": construction_ops}
