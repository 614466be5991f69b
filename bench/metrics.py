"""Tables and arithmetic of the benchmark: workloads, metric names,
summaries, ratios, failure accounting and the per-layer metrics derived
from trace spans.

Nothing here imports numpy or postcap, so run.py, which imports it,
stays small (see run.Worker.reap for why that matters).
"""

import json
import os
import re
import statistics
from collections import Counter

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load_spec(path=SPEC_PATH):
    """Workloads and metrics as BENCHMARK.json declares them.

    Returns (workloads, e2e, layers): workloads maps each name to why it
    is in the benchmark; e2e and layers are tuples of (name, unit, better).
    """
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    e2e = tuple((m["name"], m["unit"], m["better"]) for m in spec["end_to_end"])
    layers = tuple((m["name"], m["unit"], m["better"]) for m in spec["per_layer"])
    return workloads, e2e, layers


WORKLOADS, E2E, LAYERS = load_spec()

# What BENCHMARK.json cannot hold: for each per-layer metric, the
# end-to-end metric it should move and the workloads on which it moves.
# Names are <module>.<function>.<stat>; the module is the one defining
# the function.  Worker CPU time does not repeat within a tenth between
# runs on a shared two-core machine, so it is a traced-run metric here.
MOVES = {
    "optimize.maximize_mi_nofeedback.self_s": ("wall_s, worker.cpu_s", "mary"),
    "optimize.ba_iterations": ("wall_s, worker.cpu_s", "mary"),
    "optimize.ba_s_per_iter": ("wall_s, worker.cpu_s", "mary"),
    "optimize.upper_bound.self_s": ("wall_s, worker.cpu_s", "mary"),
    "optimize.maximize_di_feedback.self_s": ("wall_s", "feedback_binary, mary"),
    "optimize.feedback_iterations": ("wall_s", "mary, feedback_binary"),
    "optimize.feedback_s_per_iter": ("wall_s", "feedback_binary"),
    "optimize.certified_frac": ("failed_frac", "mary, feedback_binary"),
    "optimize.kkt_probe_s": ("wall_s", "feedback_binary"),
    "directed_info.per_iter_probe_s": ("wall_s", "feedback_binary"),
    "probability.compose_causal.calls": ("wall_s", "feedback_binary, mary"),
    "probability.compose_causal.self_s": ("wall_s", "feedback_binary, mary"),
    "channels.build_sequence_kernel.calls": ("wall_s", "mary, construction"),
    "channels.build_sequence_kernel.self_s": ("wall_s, peak_rss_mb", "mary, construction"),
    "channels.kernel_entries": ("wall_s, peak_rss_mb", "mary, construction"),
    "channels.invert_sequence_kernel.self_s": ("wall_s, peak_rss_mb", "construction"),
    "channels.inverse_bytes": ("peak_rss_mb", "construction"),
    "directed_info.directed_information.calls": ("wall_s", "construction"),
    "directed_info.directed_information.self_s": ("wall_s", "construction"),
    "optimize.open_loop_match.self_s": ("wall_s, peak_rss_mb", "construction"),
    "construction.recursive_input.self_s": ("wall_s", "construction"),
    "construction.output_markov_pmf.self_s": ("wall_s", "construction"),
    "construction.inequality_sweep.self_s": ("wall_s", "construction"),
    "closed_form.binary_dmc_capacity.calls": ("wall_s", "construction"),
    "closed_form.binary_dmc_capacity.self_s": ("wall_s", "construction"),
    "closed_form.mary_feedback_capacity.calls": ("wall_s", "construction"),
    "closed_form.mary_feedback_capacity.self_s": ("wall_s", "construction, mary"),
    "closed_form.post_alpha_capacity.self_s": ("wall_s", "construction"),
    "cli.main.self_s": ("wall_s", "mary"),
    "worker.cpu_s": ("none (worker CPU, too unsteady for end-to-end)", "mary"),
    "trace.overhead_s": ("none (cost of tracing)", "all"),
    "trace.uncovered_s": ("none (wall_s not inside a top-level span)", "all"),
    "trace.count_mismatches": ("none (counts that differ between traced passes)", "all"),
}

# Layer metrics that must repeat exactly between traced passes of one seed.
COUNTS = tuple(
    name for name, unit, *_ in LAYERS if unit in ("count", "B", "ratio") and not name.startswith("trace.")
)


def check_name(name):
    """Raise ValueError unless name fits the metric-name character set."""
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def ratio(num, base):
    """num / base, or 0.0 when nothing was counted in the base."""
    return num / base if base else 0.0


def summary(values):
    """Median, first and third quartile and sample count of a sample."""
    values = sorted(values)
    if not values:
        raise ValueError("no samples")
    med = statistics.median(values)
    if len(values) == 1:
        return {"median": med, "q1": med, "q3": med, "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def op_seconds(passes):
    """Seconds of each operation over passes, in the order first seen.

    passes is a list of outcome lists; an outcome without 'seconds' (its
    worker died) gives no sample.
    """
    samples = {}
    for outcomes in passes:
        for o in outcomes:
            if "seconds" in o:
                samples.setdefault(o["name"], []).append(o["seconds"])
    return samples


def op_medians(passes):
    """Median seconds of each operation over passes (see op_seconds)."""
    return {name: statistics.median(times) for name, times in op_seconds(passes).items()}


def op_sum_summary(samples):
    """Time to run every operation once: the sum over operations of each
    one's median, first and third quartile; n is the fewest samples any
    operation has.  A slow stretch of the host then spoils only the
    samples it overlaps, not a whole pass."""
    if not samples:
        raise ValueError("no samples")
    parts = [summary(times) for times in samples.values()]
    total = {key: sum(p[key] for p in parts) for key in ("median", "q1", "q3")}
    return {**total, "n": min(p["n"] for p in parts)}


def outcome_counts(outcomes):
    """Failure accounting over the operation outcomes of a run.

    An outcome is a dict with 'name', 'ok' (the output met its reference
    check), 'certified' (True/False for a solve, None otherwise) and
    'reason'.  'failed' counts outputs that raised or missed their
    reference; 'failed_frac' also counts solves whose certificate did not
    pass, as a share of the operations attempted.  'failures' lists each
    distinct "name: reason" with the number of times it occurred.
    """
    attempted = len(outcomes)
    wrong = [o for o in outcomes if not o["ok"]]
    uncertified = [o for o in outcomes if o["ok"] and o["certified"] is False]
    return {
        "attempted": attempted,
        "failed": len(wrong),
        "uncertified": len(uncertified),
        "failed_frac": ratio(len(wrong) + len(uncertified), attempted),
        "failures": sorted(Counter(f"{o['name']}: {o['reason']}" for o in wrong + uncertified).items()),
    }


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTable:
    """Spans of one pass, indexed for self time and ancestry queries.

    A span is (id, name, start, end, parent id or -1, op index, amount);
    amount is a size the wrapper read off the result (0 if none).
    """

    def __init__(self, spans):
        self.spans = {s[0]: s for s in spans}
        self.children = {}
        self.by_name = {}
        for s in spans:
            self.children.setdefault(s[4], []).append(s)
            self.by_name.setdefault(s[1], []).append(s)

    def self_time(self, span):
        start, end = span[2], span[3]
        kids = [(max(c[2], start), min(c[3], end)) for c in self.children.get(span[0], ())]
        return (end - start) - union_length([k for k in kids if k[1] > k[0]])

    def has_ancestor(self, span, name):
        parent = span[4]
        while parent != -1:
            up = self.spans[parent]
            if up[1] == name:
                return True
            parent = up[4]
        return False

    def named(self, name):
        return self.by_name.get(name, [])

    def top_level(self):
        return self.children.get(-1, [])


def layer_values(spans, outcomes, wall_s):
    """Per-layer metrics of one traced pass.

    Iterations are counted from calls made once per iteration: BA updates
    are logsumexp calls inside maximize_mi_nofeedback, feedback steps are
    compose_causal calls inside maximize_di_feedback (a random initial
    kernel adds one), each plus one per solve.  The metrics that need
    untraced passes or several passes are added by combine_traced.
    """
    table = SpanTable(spans)

    def calls(name):
        return len(table.named(name))

    def self_s(*names):
        return sum(table.self_time(s) for n in names for s in table.named(n))

    def incl(name, top_only=False):
        found = table.top_level() if top_only else table.named(name)
        return [s[3] - s[2] for s in found if s[1] == name]

    def amount(name):
        return sum(s[6] for s in table.named(name))

    mi, fb = "optimize.maximize_mi_nofeedback", "optimize.maximize_di_feedback"
    ba_iterations = calls(mi) + sum(
        1 for s in table.named("optimize.logsumexp") if table.has_ancestor(s, mi)
    )
    feedback_iterations = calls(fb) + sum(
        1 for s in table.named("probability.compose_causal") if table.has_ancestor(s, fb)
    )
    solves = [o for o in outcomes if o["certified"] is not None]
    kkt = incl("optimize.kkt_check")
    probe = incl("directed_info.directed_information", top_only=True)
    covered = union_length([(s[2], s[3]) for s in table.top_level()])
    return {
        "optimize.maximize_mi_nofeedback.self_s": self_s(mi),
        "optimize.ba_iterations": ba_iterations,
        "optimize.ba_s_per_iter": ratio(sum(incl(mi)), ba_iterations),
        "optimize.upper_bound.self_s": self_s("optimize.upper_bound"),
        "optimize.maximize_di_feedback.self_s": self_s(fb),
        "optimize.feedback_iterations": feedback_iterations,
        "optimize.feedback_s_per_iter": ratio(sum(incl(fb)), feedback_iterations),
        "optimize.certified_frac": ratio(sum(1 for o in solves if o["certified"]), len(solves)),
        "optimize.kkt_probe_s": ratio(sum(kkt), len(kkt)),
        "directed_info.per_iter_probe_s": ratio(sum(probe), len(probe)),
        "probability.compose_causal.calls": calls("probability.compose_causal"),
        "probability.compose_causal.self_s": self_s("probability.compose_causal"),
        "channels.build_sequence_kernel.calls": calls("channels.build_sequence_kernel"),
        "channels.build_sequence_kernel.self_s": self_s("channels.build_sequence_kernel"),
        "channels.kernel_entries": amount("channels.build_sequence_kernel"),
        "channels.invert_sequence_kernel.self_s": self_s("channels.invert_sequence_kernel"),
        "channels.inverse_bytes": amount("channels.invert_sequence_kernel"),
        "directed_info.directed_information.calls": calls("directed_info.directed_information"),
        "directed_info.directed_information.self_s": self_s("directed_info.directed_information"),
        "optimize.open_loop_match.self_s": self_s("optimize.open_loop_match"),
        "construction.recursive_input.self_s": self_s(
            "construction.recursive_input_alpha", "construction.recursive_input_ab"
        ),
        "construction.output_markov_pmf.self_s": self_s("construction.output_markov_pmf"),
        "construction.inequality_sweep.self_s": self_s("construction.inequality_sweep"),
        "closed_form.binary_dmc_capacity.calls": calls("closed_form.binary_dmc_capacity"),
        "closed_form.binary_dmc_capacity.self_s": self_s("closed_form.binary_dmc_capacity"),
        "closed_form.mary_feedback_capacity.calls": calls("closed_form.mary_feedback_capacity"),
        "closed_form.mary_feedback_capacity.self_s": self_s("closed_form.mary_feedback_capacity"),
        "closed_form.post_alpha_capacity.self_s": self_s("closed_form.post_alpha_capacity"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.uncovered_s": wall_s - covered,
    }


def combine_traced(passes, traced_walls, untraced_walls, untraced_cpus):
    """Per-layer metrics of a traced run from its traced passes.

    Counts must repeat exactly between passes of one seed; any that do
    not are returned in 'mismatches' as (name, low, high) and counted in
    trace.count_mismatches.  Times are the median over passes.  The
    untraced passes of the run give trace.overhead_s and worker.cpu_s.
    """
    values = {}
    mismatches = []
    for name in passes[0]:
        sample = [p[name] for p in passes]
        if name in COUNTS:
            if min(sample) != max(sample):
                mismatches.append((name, min(sample), max(sample)))
            values[name] = statistics.median_low(sample)
        else:
            values[name] = statistics.median(sample)
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    values["trace.count_mismatches"] = len(mismatches)
    values["worker.cpu_s"] = statistics.median(untraced_cpus)
    return values, mismatches
