"""Command-line interface.

Subcommands: ``capacity`` (closed-form values with an optional numeric
cross-check), ``table1`` (the m-ary family's capacity table), ``sweep``
(CSV parameter sweeps for external plotting) and ``verify`` (numerical
verification suites).  Exit codes: 0 on success, 1 on a numerical
failure, 2 on bad usage, including a size or channel the library
rejects with ValueError.

``capacity --numeric-check`` and ``verify kkt`` read one certificate,
the proven interval of the feedback DP (optimize._feedback_stages): no
kernel or sequence-level channel is built, so only the n |Y| |X|
entries of the stage laws bound their horizon.

``table1`` solves its upper-bound rows over the CPUs the process may
use (``os.sched_getaffinity``): one forked child per further CPU, each
row the same solve it is alone, so the output does not depend on the
CPU count; ``taskset -c 0`` runs it on one.  One rule covers every
failure: the caller solves each row no child returned.  So a row that
raised in a child raises the same in the caller, and a row lost to a
failed fork or a killed child comes out right.  Children are forked,
not spawned, since a spawned one would import numpy anew; the CLI starts
no threads, and OpenBLAS stops its pool before a fork.

Output files are deterministic: identical flags (including --seed)
produce byte-identical bytes.
"""

import argparse
import json
import math
import os
import pickle
import signal
import sys
import warnings

import numpy as np

from .channels import (
    MaryPost,
    PostAB,
    PostAlpha,
    _check_entries,
    build_sequence_kernel,
)
from .closed_form import (
    binary_dmc_capacity,
    closed_form_solution,
    mary_feedback_capacity,
    mary_scheme_rate,
    post_alpha_capacity,
)
from .construction import _input_levels, _open_loop_input, inequality_sweep
from .directed_info import concavity_probe
from .optimize import (
    OptimizerConfig,
    _check_upper_bound_size,
    _feedback_stages,
    open_loop_match,
    upper_bound,
)
from .probability import compose_causal, random_policy

# Reference values for the m-ary channel family, used by `table1 --check`:
# (upper bound at n = TABLE1_REFERENCE_N, scheme rate, feedback capacity) per m.
TABLE1_REFERENCE_N = 6
TABLE1_REFERENCE = {
    1: (0.7918, 0.0000, 0.7595),
    2: (0.8568, 0.3333, 0.8325),
    4: (0.9803, 0.6667, 1.0000),
    8: (1.1711, 1.0000, 1.2599),
    16: (1.3865, 1.3333, 1.5366),
    32: (1.6098, 1.6667, 1.8260),
    64: (1.8374, 2.0000, 2.1252),
    128: (2.0683, 2.3333, 2.4319),
    256: (2.3019, 2.6667, 2.7444),
    512: (2.5376, 3.0000, 3.0614),
    1024: (2.7751, 3.3333, 3.3818),
}
CHECK_TOL_UPPER = 1.0e-3
CHECK_TOL_RATE = 5.0e-5
CHECK_TOL_FEEDBACK = 5.0e-4

# Budget and tolerance of the feedback solve behind `capacity --numeric-check` and `verify kkt`.
FEEDBACK_CHECK = OptimizerConfig(max_iterations=20000, kkt_tolerance=1e-7)


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _tolerance(text):
    """The type of --tol: a finite float >= 0 (0 is legal, see cmd_capacity)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, not {text!r}")
    return value


def _spec_from_args(parser, args):
    if args.target == "post-alpha":
        if args.alpha is None or not 0.0 <= args.alpha <= 1.0:
            parser.error("post-alpha requires --alpha in [0, 1]")
        return PostAlpha(args.alpha)
    if args.target == "post-ab":
        if args.a is None or args.b is None:
            parser.error("post-ab requires --a and --b")
        if not (0.0 <= args.a <= 1.0 and 0.0 <= args.b <= 1.0):
            parser.error("--a and --b must lie in [0, 1]")
        return PostAB(args.a, args.b)
    if args.target == "mary":
        if args.m is None or args.m < 1:
            parser.error("mary requires --m >= 1")
        return MaryPost(args.m)
    parser.error(f"unknown capacity target {args.target!r}")


def _feedback_check(spec, n, s0):
    """(value in bits, FeedbackReport) of the n-use feedback DP from s0."""
    return _feedback_stages(spec, n, s0, FEEDBACK_CHECK)[1:]


def cmd_capacity(parser, args):
    spec = _spec_from_args(parser, args)
    sol = closed_form_solution(spec)
    closed = sol.capacity_bits
    print(f"capacity_bits: {closed:.6f}")
    if not args.numeric_check:
        return 0
    value, report = _feedback_check(spec, args.n, args.s0)
    gap = abs(value / args.n - closed)
    # n C + h(s0) - max h <= value <= n C + h(s0) - min h, with h the Bellman
    # equation's; the binary families' two states swap under relabelling, so h is flat
    span = abs(math.log2(1.0 / sol.delta_star - 1.0)) if isinstance(spec, MaryPost) else 0.0
    print(f"numeric_value_bits_per_use: {value / args.n:.6f}")
    print(f"numeric_gap: {gap:.3e}")
    print(f"horizon_slack: {span / args.n:.3e}")
    print(f"certified: {report.passed}")
    print(f"interval_width_nats: {report.polyhedron_gap:.3e}")
    # strict: with a flat h, --tol 0 fails even where the solver meets the closed form to the bit
    return 0 if (gap < args.tol + span / args.n and report.passed) else 1


def _claims(queue):
    """Indices claimed from the queue, a pipe of 1-byte records, until it is empty."""
    while record := os.read(queue, 1):
        yield record[0]


def _serve_child(fn, items, queue, out):
    """A forked child: pickle {item: fn(item)} of its claims to out and exit 0, or exit 1 writing nothing."""
    try:
        data = pickle.dumps({items[i]: fn(items[i]) for i in _claims(queue)})
        with os.fdopen(out, "wb") as fh:
            fh.write(data)
        os._exit(0)
    finally:
        os._exit(1)


def _map_over_cpus(fn, items):
    """{item: fn(item)} for at most 256 items, spread over the CPUs this process may use.

    The caller takes items[0]; then one forked child per further usable
    CPU (at most one per further item) and the caller claim the rest, one
    index at a time, from one queue, so list the costliest item first.
    Each child pickles its results back over its own pipe, and the caller
    computes every item no child returned: fn being deterministic, an
    item that raised in a child raises the same here, and one lost to a
    failed fork or a killed child comes out right.  Every child is
    reaped, and killed first if this raises.  Python >= 3.12's warning
    on a fork while threads run is ignored, so -W error loses no pid.
    """
    queue, feed = os.pipe()
    os.write(feed, bytes(range(1, len(items))))
    os.close(feed)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(items)) if hasattr(os, "fork") else 1
    children, pipes = [], []  # pids to reap; read ends of the children's result pipes
    raising = True
    try:
        for _ in range(workers - 1):
            pipe, out = os.pipe()
            pipes.append(pipe)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(out)
                break
            if pid == 0:
                _serve_child(fn, items, queue, out)
            os.close(out)
            children.append(pid)
        results = {item: fn(item) for item in items[:1]}
        results.update((items[i], fn(items[i])) for i in _claims(queue))
        while pipes:
            with os.fdopen(pipes.pop(0), "rb") as fh:
                results.update(pickle.loads(data) if (data := fh.read()) else {})
        results.update((item, fn(item)) for item in items if item not in results)
        raising = False
        return results
    finally:
        os.close(queue)
        for pipe in pipes:
            os.close(pipe)
        for pid in children:
            if raising:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _table1_rows(args, cfg):
    """Rows (m, upper bound, its interval's width in nats, scheme rate, feedback capacity).

    The upper bound and its width are None for m above args.upper_bound_max_m.
    The upper-bound rows are solved over the usable CPUs, largest m first.
    """
    ms = []
    m = 1
    while m <= args.max_m:
        ms.append(m)
        m *= 2
    bounded = [m for m in ms if m <= args.upper_bound_max_m]
    # the largest m raises here if it is too large, before any row is
    # solved; its size check is handed to its solve
    _check_entries("stationary law", max(ms, default=0) + 1)
    checked = {bounded[-1]: _check_upper_bound_size(MaryPost(bounded[-1]), args.n)} if bounded else {}

    bounds = _map_over_cpus(lambda m: upper_bound(MaryPost(m), args.n, cfg, checked.get(m)), bounded[::-1])
    return [
        (m, *bounds.get(m, (None, None)), mary_scheme_rate(m), mary_feedback_capacity(m).capacity_bits)
        for m in ms
    ]


def cmd_table1(parser, args):
    if args.max_m < 1:
        parser.error("--max-m must be at least 1")
    if args.n < 1:
        parser.error("--n must be at least 1")
    if args.upper_bound_max_m < 0:
        parser.error("--upper-bound-max-m must be at least 0")
    cfg = OptimizerConfig(max_iterations=50000, kkt_tolerance=1e-7)
    rows = _table1_rows(args, cfg)
    if args.format == "csv":
        lines = ["m,upper_bound,scheme_rate,feedback_capacity"]
        for m, ub, _, rate, fb in rows:
            ub_txt = "" if ub is None else f"{ub:.6f}"
            lines.append(f"{m},{ub_txt},{rate:.6f},{fb:.6f}")
        _write(args.out, "\n".join(lines) + "\n")
    else:
        payload = [
            {
                "m": m,
                "upper_bound": None if ub is None else round(ub, 6),
                "scheme_rate": round(rate, 6),
                "feedback_capacity": round(fb, 6),
            }
            for m, ub, _, rate, fb in rows
        ]
        _write(args.out, json.dumps(payload, indent=2) + "\n")
    if not args.check:
        return 0
    ok = True
    for m, ub, width, rate, fb in rows:
        if width is not None and width > cfg.kkt_tolerance:
            print(
                f"check failed: m={m} upper-bound solve stopped at the iteration cap "
                f"(interval width {width:.3e} nats)",
                file=sys.stderr,
            )
            ok = False
        ref = TABLE1_REFERENCE.get(m)
        if ref is None:
            continue
        ref_ub, ref_rate, ref_fb = ref
        # the reference upper bounds hold at one horizon only
        if ub is not None and args.n == TABLE1_REFERENCE_N and abs(ub - ref_ub) > CHECK_TOL_UPPER:
            print(f"check failed: m={m} upper_bound {ub:.6f} vs {ref_ub}", file=sys.stderr)
            ok = False
        if abs(rate - ref_rate) > CHECK_TOL_RATE:
            print(f"check failed: m={m} scheme_rate {rate:.6f} vs {ref_rate}", file=sys.stderr)
            ok = False
        if abs(fb - ref_fb) > CHECK_TOL_FEEDBACK:
            print(f"check failed: m={m} feedback {fb:.6f} vs {ref_fb}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


def cmd_sweep(parser, args):
    if args.points < 2:
        parser.error("--points must be at least 2")
    _check_entries("sweep", args.points if args.target == "alpha" else args.points**2)
    grid = np.linspace(0.0, 1.0, args.points)
    if args.target == "alpha":
        lines = ["alpha,capacity_bits"]
        lines.extend(f"{a:.6f},{post_alpha_capacity(a).capacity_bits:.6f}" for a in grid)
    else:
        lines = ["a,b,capacity_bits,gamma"]
        for a, b in ((a, b) for a in grid for b in grid):
            sol = binary_dmc_capacity(a, b)
            gamma = "" if sol.degenerate else f"{sol.gamma:.6f}"
            lines.append(f"{a:.6f},{b:.6f},{sol.capacity_bits:.6f},{gamma}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _binary_spec(parser, args):
    if args.family == "post-alpha":
        if not 0.0 < args.alpha < 1.0:
            parser.error("--alpha must lie in (0, 1)")
        return PostAlpha(args.alpha)
    if args.family == "post-ab":
        if not (0.0 <= args.a <= 1.0 and 0.0 <= args.b <= 1.0 and args.a + args.b > 1.0):
            parser.error("--a/--b must lie in [0, 1] with a + b > 1")
        return PostAB(args.a, args.b)
    parser.error(f"unknown family {args.family!r}")


def _verify_kkt(parser, args):
    spec = _binary_spec(parser, args)
    closed = closed_form_solution(spec).capacity_bits
    value, report = _feedback_check(spec, args.n, args.s0)
    return [
        ("interval_width", report.polyhedron_gap, report.passed),
        (
            "value_vs_closed_form",
            abs(value / args.n - closed),
            abs(value / args.n - closed) <= args.tol,
        ),
    ]


def _verify_construction(parser, args):
    spec = _binary_spec(parser, args)
    matches = [open_loop_match(spec, args.n, s0) for s0 in (0, 1)]
    # each prefix marginal of the level-n inputs against that level, one level at a time
    inputs = [_open_loop_input(spec, args.n, s0) for s0 in (0, 1)]
    gaps = [0.0, 0.0]
    for i, level in enumerate(_input_levels(spec, args.n - 1), 1):
        for s0, pmf in enumerate(inputs):
            gaps[s0] = max(gaps[s0], float(np.abs(pmf.prefix_marginal(i).values - level[s0]).max()))
    checks = []
    for s0, (match, consistency_gap) in enumerate(zip(matches, gaps)):
        checks.extend(
            [
                (f"s0={s0} input_valid", abs(match.total - 1.0), match.passed),
                (f"s0={s0} output_markov", match.output_gap, match.output_gap <= 1e-10),
                (f"s0={s0} horizon_consistency", consistency_gap, consistency_gap <= 1e-12),
            ]
        )
    return checks


def _verify_concavity(parser, args):
    spec = _binary_spec(parser, args)
    chan = build_sequence_kernel(spec, args.n, args.s0).kernel
    rng = np.random.default_rng(args.seed)
    worst = math.inf
    for _ in range(args.trials):
        p1 = compose_causal(random_policy(2, 2, args.n, 1, rng))
        p2 = compose_causal(random_policy(2, 2, args.n, 1, rng))
        lhs, rhs = concavity_probe(chan, p1, p2, 0.5)
        worst = min(worst, lhs - rhs)
    return [("midpoint_concavity", worst, worst >= -1e-12)]


def _verify_inequalities(parser, args):
    report = inequality_sweep(args.grid)
    return [(c.name, c.worst_margin, c.passed) for c in report.checks]


def cmd_verify(parser, args):
    if args.suite in ("concavity", "all") and args.trials < 1:
        parser.error("--trials must be at least 1")
    suites = []
    if args.suite in ("kkt", "all"):
        suites.append(("kkt", _verify_kkt(parser, args)))
    if args.suite in ("construction", "all"):
        suites.append(("construction", _verify_construction(parser, args)))
    if args.suite in ("inequalities", "all"):
        suites.append(("inequalities", _verify_inequalities(parser, args)))
    if args.suite in ("concavity", "all"):
        suites.append(("concavity", _verify_concavity(parser, args)))
    all_ok = True
    for suite, checks in suites:
        for name, margin, ok in checks:
            status = "pass" if ok else "FAIL"
            print(f"{suite}/{name}: margin={margin:.6e} {status}")
            all_ok = all_ok and ok
    print("result: " + ("pass" if all_ok else "FAIL"))
    return 0 if all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="postcap",
        description="Capacities of channels whose state is the previous output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capacity", help="closed-form capacity of one channel")
    cap.add_argument("target", choices=["post-alpha", "post-ab", "mary"])
    cap.add_argument("--alpha", type=float)
    cap.add_argument("--a", type=float)
    cap.add_argument("--b", type=float)
    cap.add_argument("--m", type=int)
    cap.add_argument("--numeric-check", action="store_true")
    cap.add_argument("--n", type=int, default=3, help="depth of the numeric check")
    cap.add_argument("--s0", type=int, default=0)
    cap.add_argument("--tol", type=_tolerance, default=1e-4)

    tab = sub.add_parser("table1", help="m-ary family capacity table")
    tab.add_argument("--n", type=int, default=6)
    tab.add_argument("--max-m", type=int, default=1024)
    tab.add_argument("--upper-bound-max-m", type=int, default=4)
    tab.add_argument("--out")
    tab.add_argument("--format", choices=["csv", "json"], default="csv")
    tab.add_argument("--check", action="store_true", help="compare against reference values")

    sw = sub.add_parser("sweep", help="parameter sweeps as CSV")
    sw.add_argument("target", choices=["alpha", "ab"])
    sw.add_argument("--points", type=int, default=101)
    sw.add_argument("--out")

    ver = sub.add_parser("verify", help="numerical verification suites")
    ver.add_argument("suite", choices=["kkt", "construction", "inequalities", "concavity", "all"])
    ver.add_argument("--family", choices=["post-alpha", "post-ab"], default="post-alpha")
    ver.add_argument("--alpha", type=float, default=0.5)
    ver.add_argument("--a", type=float, default=0.9)
    ver.add_argument("--b", type=float, default=0.7)
    ver.add_argument("--n", type=int, default=3)
    ver.add_argument("--s0", type=int, default=0)
    ver.add_argument("--grid", type=int, default=200)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--tol", type=_tolerance, default=1e-4)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "capacity": cmd_capacity,
        "table1": cmd_table1,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
    }
    try:
        return commands[args.command](parser, args)
    except ValueError as exc:
        # out-of-range sizes and states, singular channels
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
