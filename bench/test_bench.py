"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest bench/test_bench.py
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(i, name, start, end, parent=-1, amount=0):
    return (i, name, start, end, parent, 0, amount)


def test_self_time_subtracts_the_union_of_nested_children():
    spans = [
        span(0, "a", 0.0, 10.0),
        span(1, "b", 1.0, 4.0, parent=0),
        span(2, "c", 3.0, 6.0, parent=0),  # overlaps b: children cover 1..6
        span(3, "d", 2.0, 3.0, parent=1),
        span(4, "e", 9.0, 12.0, parent=0),  # runs past its parent: clipped at 10
    ]
    table = metrics.SpanTable(spans)
    assert table.self_time(spans[0]) == pytest.approx(10.0 - 5.0 - 1.0)
    assert table.self_time(spans[1]) == pytest.approx(2.0)
    assert table.self_time(spans[3]) == pytest.approx(1.0)
    assert table.has_ancestor(spans[3], "a") and not table.has_ancestor(spans[0], "a")


def test_union_length():
    assert metrics.union_length([]) == 0.0
    assert metrics.union_length([(0, 1), (2, 3)]) == 2.0
    assert metrics.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0


def test_ratio_with_zero_base_is_zero():
    assert metrics.ratio(3.0, 0) == 0.0
    assert metrics.ratio(0.0, 0.0) == 0.0
    assert metrics.ratio(3.0, 2) == 1.5


def test_layer_values_without_spans_or_solves():
    values = metrics.layer_values([], [], wall_s=2.0)
    assert values["optimize.ba_s_per_iter"] == 0.0
    assert values["optimize.feedback_s_per_iter"] == 0.0
    assert values["optimize.certified_frac"] == 0.0
    assert values["optimize.kkt_probe_s"] == 0.0
    assert values["trace.uncovered_s"] == 2.0


def test_iteration_counts_come_from_calls_inside_the_solver_span():
    mi, fb = "optimize.maximize_mi_nofeedback", "optimize.maximize_di_feedback"
    spans = [
        span(0, mi, 0.0, 4.0),
        span(1, "channels.build_sequence_kernel", 0.0, 1.0, parent=0, amount=81),
        span(2, "optimize.logsumexp", 1.0, 1.5, parent=0),
        span(3, "optimize.logsumexp", 2.0, 2.5, parent=0),
        span(4, fb, 4.0, 6.0),
        span(5, "optimize.logsumexp", 4.5, 4.6, parent=4),  # surrogate step, not BA
        span(6, "probability.compose_causal", 4.6, 4.8, parent=4),
        span(7, "optimize.logsumexp", 7.0, 7.1),  # outside any solver
    ]
    outcomes = [
        {"name": "x", "ok": True, "certified": True, "reason": ""},
        {"name": "y", "ok": True, "certified": False, "reason": ""},
        {"name": "z", "ok": True, "certified": None, "reason": ""},
    ]
    values = metrics.layer_values(spans, outcomes, wall_s=8.0)
    assert values["optimize.ba_iterations"] == 3
    assert values["optimize.ba_s_per_iter"] == pytest.approx(4.0 / 3)
    assert values["optimize.feedback_iterations"] == 2
    assert values["optimize.feedback_s_per_iter"] == pytest.approx(1.0)
    assert values["optimize.certified_frac"] == 0.5
    assert values["channels.kernel_entries"] == 81
    assert values[mi + ".self_s"] == pytest.approx(4.0 - 1.0 - 1.0)
    assert values["trace.uncovered_s"] == pytest.approx(8.0 - 4.0 - 2.0 - 0.1)


def test_failed_frac_counts_wrong_outputs_and_failed_certificates():
    outcomes = [
        {"name": "a", "ok": True, "certified": None, "reason": ""},
        {"name": "b", "ok": True, "certified": True, "reason": ""},
        {"name": "c", "ok": True, "certified": False, "reason": "certificate not passed"},
        {"name": "d", "ok": False, "certified": True, "reason": "value off"},
    ]
    counts = metrics.outcome_counts(outcomes)
    assert counts["attempted"] == 4
    assert counts["failed"] == 1
    assert counts["uncertified"] == 1
    assert counts["failed_frac"] == 0.5
    assert counts["failures"] == [("c: certificate not passed", 1), ("d: value off", 1)]
    assert metrics.outcome_counts(outcomes * 2)["failures"][0] == ("c: certificate not passed", 2)
    assert metrics.outcome_counts([])["failed_frac"] == 0.0


def test_counts_that_differ_between_passes_are_reported():
    first = {"optimize.ba_iterations": 10, "cli.main.self_s": 1.0, "trace.uncovered_s": 0.1}
    second = {"optimize.ba_iterations": 12, "cli.main.self_s": 3.0, "trace.uncovered_s": 0.3}
    values, mismatches = metrics.combine_traced([first, second], [5.0, 6.0], [4.0], [7.0])
    assert mismatches == [("optimize.ba_iterations", 10, 12)]
    assert values["trace.count_mismatches"] == 1
    assert values["cli.main.self_s"] == 2.0
    assert values["trace.overhead_s"] == pytest.approx(1.5)
    assert values["worker.cpu_s"] == 7.0


def test_every_layer_metric_is_computed():
    per_pass = metrics.layer_values([], [], wall_s=1.0)
    values, _ = metrics.combine_traced([per_pass], [1.0], [1.0], [1.0])
    assert sorted(values) == sorted(name for name, *_ in metrics.LAYERS)


def test_summary_quartiles():
    s = metrics.summary([4.0, 1.0, 3.0, 2.0])
    assert (s["median"], s["n"]) == (2.5, 4)
    assert s["q1"] <= s["median"] <= s["q3"]
    assert metrics.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}
    # Quartiles stay inside the observed values, even with two samples.
    assert metrics.summary([1.0, 3.0]) == {"median": 2.0, "q1": 1.5, "q3": 2.5, "n": 2}


def test_wall_time_sums_each_operations_median_over_passes():
    passes = [
        [{"name": "a", "seconds": 1.0}, {"name": "b", "seconds": 10.0}],
        [{"name": "a", "seconds": 9.0}, {"name": "b", "seconds": 2.0}],
        # A cut pass, and an operation whose worker died: no time for it.
        [{"name": "a", "seconds": 2.0}, {"name": "b", "ok": False}],
    ]
    assert metrics.op_seconds(passes) == {"a": [1.0, 9.0, 2.0], "b": [10.0, 2.0]}
    assert metrics.op_medians(passes) == {"a": 2.0, "b": 6.0}
    s = metrics.op_sum_summary(metrics.op_seconds(passes))
    assert (s["median"], s["n"]) == (8.0, 2)
    assert s["q1"] <= s["median"] <= s["q3"]
    with pytest.raises(ValueError):
        metrics.op_sum_summary({})


@pytest.mark.parametrize("name", ["wall_s", "a.b-c_d", "9x", "x" * 64])
def test_metric_name_accepted(name):
    assert metrics.check_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "mary.é"])
def test_metric_name_rejected(name):
    with pytest.raises(ValueError):
        metrics.check_name(name)


def test_benchmark_json_names_are_valid_and_every_layer_has_its_moves():
    names = [name for name, *_ in metrics.E2E + metrics.LAYERS] + list(metrics.WORKLOADS)
    assert len(set(names)) == len(names)
    for name in names:
        metrics.check_name(name)
    assert sorted(metrics.MOVES) == sorted(name for name, *_ in metrics.LAYERS)


def test_stratified_draw_puts_two_antithetic_points_in_each_stratum():
    rng = np.random.default_rng(3)
    points = workloads.stratified(rng, 0.2, 0.6, 4)
    assert len(points) == 8
    for i in range(4):
        low, high = points[2 * i], points[2 * i + 1]
        assert 0.2 + 0.1 * i <= min(low, high) <= max(low, high) <= 0.2 + 0.1 * (i + 1)
        assert low + high == pytest.approx(2 * (0.25 + 0.1 * i))


def test_ab_pairs_cover_the_family_in_both_orders():
    pairs = workloads.ab_pairs(np.random.default_rng(5), (0.2, 0.9), 4)
    assert pairs == workloads.ab_pairs(np.random.default_rng(5), (0.2, 0.9), 4)
    assert pairs != workloads.ab_pairs(np.random.default_rng(6), (0.2, 0.9), 4)
    assert len(pairs) == 8
    for i, (a, b) in enumerate(pairs):
        assert 0.05 <= min(a, b) <= max(a, b) <= 0.95
        assert 0.2 + 0.175 * (i // 2) <= a + b - 1.0 <= 0.2 + 0.175 * (i // 2 + 1) + 1e-12
    for first, second in zip(pairs[::2], pairs[1::2]):
        assert (first[0] - first[1]) * (second[0] - second[1]) <= 0.0


def test_workload_inputs_follow_the_seed():
    for make in workloads.OPS.values():
        assert [name for name, _ in make(7)] == [name for name, _ in make(7)]
    names = [name for name, _ in workloads.feedback_binary_ops(7)]
    assert names != [name for name, _ in workloads.feedback_binary_ops(8)]
    assert sum(name.endswith(".s0") for name in names) == sum(name.endswith(".s1") for name in names)


def test_tracer_records_parents_and_spans_of_raising_calls():
    tracer = tracing.Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_leaf = tracer.wrap("m.leaf", leaf)
    traced_outer = tracer.wrap("m.outer", lambda x: traced_leaf(x) + traced_leaf(x))
    assert traced_outer(2) == 4
    with pytest.raises(ValueError):
        traced_leaf(-1)
    spans = tracer.take()
    names = {s[0]: s[1] for s in spans}
    assert sorted(names.values()) == ["m.leaf", "m.leaf", "m.leaf", "m.outer"]
    outer = next(s for s in spans if s[1] == "m.outer")
    children = [s for s in spans if s[4] == outer[0]]
    assert len(children) == 2 and outer[4] == -1
    assert all(s[2] <= s[3] for s in spans)
    assert tracer.take() == []
